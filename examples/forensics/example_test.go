// Digital forensics: the XIRAF scenario of the paper (its first author built
// XIRAF at the Netherlands Forensic Institute). Multiple analysis tools
// annotate byte regions of a confiscated disk image: a filesystem parser
// (files may be fragmented — non-contiguous areas!), a keyword scanner and a
// file-type carver. The stand-off queries combine the tools' outputs.
//
//	go test -v ./examples/forensics
package forensics

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"soxq"
	"soxq/internal/blob"
)

func Example() {
	// ---- Synthesise a tiny "disk image" BLOB -------------------------
	// Layout (offsets in bytes):
	//     0- 511: boot sector (zeros)
	//   512-1023: report.txt, fragment 1
	//  1024-1535: deleted region with a stray credit card number
	//  1536-2047: report.txt, fragment 2 (fragmented file!)
	//  2048-3071: cat.jpg (carved JPEG signature at 2048)
	img := make([]byte, 3072)
	copy(img[512:], []byte("QUARTERLY REPORT: the transfer of 4111 1111 1111 1111 was "))
	copy(img[1024:], []byte("...deleted space... card 5500 0000 0000 0004 appears here ..."))
	copy(img[1536:], []byte("approved by the board. END OF REPORT."))
	copy(img[2048:], []byte{0xFF, 0xD8, 0xFF, 0xE0}) // JPEG magic
	disk := blob.FromBytes(img)

	// ---- Annotation documents produced by three tools ----------------
	// The filesystem tool uses the region-element representation because
	// report.txt is fragmented across two block runs.
	annotations := `<image>
	  <filesystem>
	    <file name="report.txt" owner="alice">
	      <region><start>512</start><end>1023</end></region>
	      <region><start>1536</start><end>2047</end></region>
	    </file>
	    <file name="cat.jpg" owner="bob">
	      <region><start>2048</start><end>3071</end></region>
	    </file>
	    <unallocated>
	      <region><start>1024</start><end>1535</end></region>
	    </unallocated>
	  </filesystem>
	  <keywords>
	    <hit term="4111 1111 1111 1111"><region><start>546</start><end>564</end></region></hit>
	    <hit term="5500 0000 0000 0004"><region><start>1049</start><end>1067</end></region></hit>
	    <hit term="REPORT"><region><start>522</start><end>527</end></region></hit>
	    <hit term="REPORT"><region><start>1566</start><end>1571</end></region></hit>
	  </keywords>
	  <carver>
	    <jpeg><region><start>2048</start><end>2051</end></region></jpeg>
	  </carver>
	</image>`

	eng := soxq.New()
	// Regions are <region><start/><end/></region> children, enabling
	// non-contiguous areas (paper section 2, element representation).
	if err := eng.Declare("standoff-region", "region"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadStandOff("image.xml", []byte(annotations), disk); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Forensic queries over one disk image, three annotation tools")
	fmt.Println()

	// Which files contain credit-card-like keyword hits? Containment must
	// respect fragmentation: the hit must lie inside SOME fragment.
	q1 := `for $f in doc("image.xml")//file
	       where exists($f/select-narrow::hit[contains(@term, "1111") or contains(@term, "0000")])
	       return string($f/@name)`
	show(eng, "Files containing card-number hits (select-narrow over fragmented areas)", q1)

	// Hits in unallocated (deleted) space: classic evidence recovery.
	q2 := `for $h in doc("image.xml")//unallocated/select-narrow::hit
	       return string($h/@term)`
	show(eng, "Keyword hits inside unallocated space", q2)

	// Hits NOT inside any file: reject-narrow from all files.
	q3 := `for $h in doc("image.xml")//file/reject-narrow::hit
	       return string($h/@term)`
	show(eng, "Hits outside every file (reject-narrow)", q3)

	// Files whose content region overlaps a carved JPEG signature.
	q4 := `for $f in doc("image.xml")//jpeg/select-wide::file
	       return string($f/@name)`
	show(eng, "Files overlapping a carved JPEG signature (select-wide)", q4)

	// Reassemble the fragmented file through the BLOB.
	q5 := `so:blob-text(doc("image.xml")//file[@name = "report.txt"])`
	res, err := eng.Query(q5)
	if err != nil {
		log.Fatal(err)
	}
	content := bytes.TrimRight([]byte(res.Strings()[0]), "\x00")
	fmt.Printf("Reassembled report.txt (fragments joined in position order):\n  %q\n",
		strings.ReplaceAll(string(content), "\x00", "."))

	// Output:
	// Forensic queries over one disk image, three annotation tools
	//
	// Files containing card-number hits (select-narrow over fragmented areas):
	//   -> [report.txt]
	//
	// Keyword hits inside unallocated space:
	//   -> [5500 0000 0000 0004]
	//
	// Hits outside every file (reject-narrow):
	//   -> [5500 0000 0000 0004]
	//
	// Files overlapping a carved JPEG signature (select-wide):
	//   -> [cat.jpg]
	//
	// Reassembled report.txt (fragments joined in position order):
	//   "QUARTERLY REPORT: the transfer of 4111 1111 1111 1111 was ......................................................................................................................................................................................................................................................................................................................................................................................................................................................................approved by the board. END OF REPORT."
}

func show(eng *soxq.Engine, label, q string) {
	res, err := eng.Query(q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%s:\n  -> %v\n\n", label, res.Strings())
}
