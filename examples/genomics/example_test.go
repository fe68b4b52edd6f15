// Genome annotation: the bioinformatics application the paper's conclusion
// proposes ("genome sequence annotations in bioinformatics"). Genes,
// sequencing reads and variant calls annotate base-pair regions of one
// chromosome; the hierarchies overlap freely (a read can straddle a gene
// boundary, a variant can fall between genes), so stand-off regions — not
// element nesting — carry the structure.
//
//	go test -v ./examples/genomics
package genomics

import (
	"fmt"
	"log"

	"soxq"
)

// Coordinates are base-pair offsets on a toy chromosome.
const chromosome = `<chromosome name="chr21">
  <genes>
    <gene id="APP"    start="1000" end="4999"/>
    <gene id="SOD1"   start="7000" end="8999"/>
    <gene id="DYRK1A" start="12000" end="15999"/>
  </genes>
  <reads>
    <read id="r1" start="900"   end="1400"/>
    <read id="r2" start="4800"  end="5300"/>
    <read id="r3" start="7100"  end="7600"/>
    <read id="r4" start="9500"  end="9900"/>
    <read id="r5" start="15800" end="16300"/>
  </reads>
  <variants>
    <variant id="v1" type="snp" start="1200"  end="1200"/>
    <variant id="v2" type="del" start="5100"  end="5160"/>
    <variant id="v3" type="snp" start="8999"  end="8999"/>
    <variant id="v4" type="ins" start="13500" end="13500"/>
  </variants>
</chromosome>`

func Example() {
	eng := soxq.New()
	if err := eng.LoadXML("chr21.xml", []byte(chromosome)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Genome annotations on chr21: genes, reads, variant calls")
	fmt.Println()

	show(eng, "Variants inside genes, with the gene they hit",
		`for $g in doc("chr21.xml")//gene
		 for $v in $g/select-narrow::variant
		 return concat(string($v/@id), " in ", string($g/@id))`)

	show(eng, "Intergenic variants (reject-narrow from all genes)",
		`for $v in doc("chr21.xml")//gene/reject-narrow::variant
		 return string($v/@id)`)

	show(eng, "Reads straddling a gene boundary: not contained in any gene\n  (reject-narrow) intersected with overlapping some gene (select-wide)",
		`for $r in doc("chr21.xml")//gene/reject-narrow::read
		   intersect doc("chr21.xml")//gene/select-wide::read
		 return string($r/@id)`)

	show(eng, "Coverage: reads per gene (overlap join in one pass)",
		`for $g in doc("chr21.xml")//gene
		 return concat(string($g/@id), "=", string(count($g/select-wide::read)))`)

	show(eng, "Genes containing a variant that no read covers",
		`for $g in doc("chr21.xml")//gene
		 where some $v in $g/select-narrow::variant
		       satisfies empty($v/select-wide::read)
		 return string($g/@id)`)

	// Output:
	// Genome annotations on chr21: genes, reads, variant calls
	//
	// Variants inside genes, with the gene they hit:
	//   -> [v1 in APP v3 in SOD1 v4 in DYRK1A]
	//
	// Intergenic variants (reject-narrow from all genes):
	//   -> [v2]
	//
	// Reads straddling a gene boundary: not contained in any gene
	//   (reject-narrow) intersected with overlapping some gene (select-wide):
	//   -> [r1 r2 r5]
	//
	// Coverage: reads per gene (overlap join in one pass):
	//   -> [APP=2 SOD1=1 DYRK1A=1]
	//
	// Genes containing a variant that no read covers:
	//   -> [SOD1 DYRK1A]
}

func show(eng *soxq.Engine, label, q string) {
	res, err := eng.Query(q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%s:\n  -> %v\n\n", label, res.Strings())
}
