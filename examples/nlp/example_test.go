// Natural language processing: concurrent markup over one text corpus — the
// TEI/CONCUR problem the paper cites. The physical hierarchy (pages, lines)
// and the linguistic hierarchy (sentences, named entities) overlap freely,
// which inline XML cannot represent; stand-off annotation handles it
// naturally, with word positions as the region domain.
//
//	go test -v ./examples/nlp
package nlp

import (
	"fmt"
	"log"
	"strings"

	"soxq"
	"soxq/internal/blob"
)

func Example() {
	// The corpus: 24 words; regions below are word offsets (not bytes),
	// demonstrating that the position domain is configurable data, not
	// always byte offsets.
	words := strings.Fields(`
	  mr holmes examined the letter carefully before he spoke the
	  envelope bore a london postmark and the seal of sir charles
	  baskerville himself indeed`)
	corpus := strings.Join(words, " ")

	// Two independent hierarchies over the same word range:
	//  - physical: two pages, the page break falls INSIDE sentence 2;
	//  - linguistic: three sentences and named entities; the entity "sir
	//    charles baskerville" also straddles the page break.
	annotations := `<corpus>
	  <physical>
	    <page no="1" start="0" end="19"/>
	    <page no="2" start="20" end="23"/>
	  </physical>
	  <linguistic>
	    <sentence id="s1" start="0" end="9"/>
	    <sentence id="s2" start="10" end="22"/>
	    <sentence id="s3" start="23" end="23"/>
	    <entity type="person" id="holmes" start="0" end="1"/>
	    <entity type="location" id="london" start="13" end="13"/>
	    <entity type="person" id="baskerville" start="19" end="21"/>
	  </linguistic>
	</corpus>`

	eng := soxq.New()
	if err := eng.LoadStandOff("corpus.xml", []byte(annotations), blob.FromString(corpus)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Concurrent markup: physical pages vs. linguistic structure")
	fmt.Println()

	show(eng, "Entities fully on page 1 (select-narrow)",
		`for $e in doc("corpus.xml")//page[@no = "1"]/select-narrow::entity
		 return string($e/@id)`)

	show(eng, "Sentences that straddle the page break (overlap both pages)",
		`for $s in doc("corpus.xml")//sentence
		 where count($s/select-wide::page) > 1
		 return string($s/@id)`)

	show(eng, "Entities not contained in any single page (reject-narrow)",
		`for $e in doc("corpus.xml")//page/reject-narrow::entity
		 return string($e/@id)`)

	show(eng, "Sentences containing a person entity",
		`for $s in doc("corpus.xml")//sentence
		 where exists($s/select-narrow::entity[@type = "person"])
		 return string($s/@id)`)

	show(eng, "Pages on which each sentence appears (overlap join per sentence)",
		`for $s in doc("corpus.xml")//sentence
		 return concat(string($s/@id), ":",
		   string-join(for $p in $s/select-wide::page return string($p/@no), "+"))`)

	// Recover the annotated words through the BLOB. The region domain is
	// word offsets, so regions are mapped to byte spans by the caller —
	// here we simply split the corpus again.
	res, err := eng.Query(`for $e in doc("corpus.xml")//entity
	                       return concat(string($e/@id), "=", string(so:start($e)), "..", string(so:end($e)))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Entity word ranges resolved back to text:")
	for _, spec := range res.Strings() {
		idPart, rangePart, _ := strings.Cut(spec, "=")
		lohi := strings.SplitN(rangePart, "..", 2)
		var lo, hi int
		fmt.Sscanf(lohi[0], "%d", &lo)
		fmt.Sscanf(lohi[1], "%d", &hi)
		fmt.Printf("  %-12s %q\n", idPart, strings.Join(words[lo:hi+1], " "))
	}

	// Output:
	// Concurrent markup: physical pages vs. linguistic structure
	//
	// Entities fully on page 1 (select-narrow):
	//   -> [holmes london]
	//
	// Sentences that straddle the page break (overlap both pages):
	//   -> [s2]
	//
	// Entities not contained in any single page (reject-narrow):
	//   -> [baskerville]
	//
	// Sentences containing a person entity:
	//   -> [s1 s2]
	//
	// Pages on which each sentence appears (overlap join per sentence):
	//   -> [s1:1 s2:1+2 s3:2]
	//
	// Entity word ranges resolved back to text:
	//   holmes       "mr holmes"
	//   london       "london"
	//   baskerville  "sir charles baskerville"
}

func show(eng *soxq.Engine, label, q string) {
	res, err := eng.Query(q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%s:\n  -> %v\n\n", label, res.Strings())
}
