// Multimedia retrieval: speech transcripts, shot boundaries and face
// detections annotating the same broadcast stream — three overlapping
// annotation hierarchies over one BLOB, the scenario that motivates
// stand-off annotation in the paper's introduction (LMNL-style inline markup
// cannot express this without duplication).
//
//	go test -v ./examples/multimedia
package multimedia

import (
	"fmt"
	"log"

	"soxq"
)

// Three tools annotated the same 10-minute broadcast independently:
// a shot-boundary detector, a speech recogniser (per speaker turn), and a
// face detector. Regions are millisecond timecodes.
const broadcast = `<broadcast>
  <shots>
    <shot no="1" start="0:00" end="0:45"/>
    <shot no="2" start="0:45" end="3:10"/>
    <shot no="3" start="3:10" end="6:20"/>
    <shot no="4" start="6:20" end="10:00"/>
  </shots>
  <speech>
    <turn speaker="anchor"   start="0:02" end="0:44"/>
    <turn speaker="reporter" start="0:50" end="2:58"/>
    <turn speaker="minister" start="3:15" end="4:50"/>
    <turn speaker="reporter" start="4:52" end="6:15"/>
    <turn speaker="anchor"   start="6:25" end="9:58"/>
  </speech>
  <faces>
    <face who="minister" start="3:05" end="5:00"/>
    <face who="reporter" start="0:40" end="1:20"/>
    <face who="anchor"   start="0:00" end="0:44"/>
    <face who="anchor"   start="6:20" end="10:00"/>
  </faces>
</broadcast>`

func run(eng *soxq.Engine, label, q string) {
	res, err := eng.Query(q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%s\n  -> %v\n\n", label, res.Strings())
}

func Example() {
	eng := soxq.New()
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadXML("broadcast.xml", []byte(broadcast)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Querying three overlapping annotation hierarchies of one stream")
	fmt.Println()

	run(eng, `Shots in which the minister speaks (select-wide = overlap):
  //turn[@speaker="minister"]/select-wide::shot`,
		`for $s in doc("broadcast.xml")//turn[@speaker = "minister"]/select-wide::shot
		 return concat("shot ", $s/@no)`)

	run(eng, `Speaker turns fully inside shot 3 (select-narrow = containment):
  //shot[@no="3"]/select-narrow::turn`,
		`for $t in doc("broadcast.xml")//shot[@no = "3"]/select-narrow::turn
		 return string($t/@speaker)`)

	run(eng, `Faces on screen while their owner is NOT speaking (reject-wide):
  faces whose region does not overlap any same-person turn`,
		`for $f in doc("broadcast.xml")//face
		 where empty($f/select-wide::turn[@speaker = $f/@who])
		 return concat(string($f/@who), " at ", string($f/@start))`)

	run(eng, `Shots in which the anchor's face never appears (reject-wide is an
  anti-join over the WHOLE context sequence, section 3.1):
  //face[@who="anchor"]/reject-wide::shot`,
		`for $s in doc("broadcast.xml")//face[@who = "anchor"]/reject-wide::shot
		 return concat("shot ", $s/@no)`)

	run(eng, `Cross-hierarchy join: speakers whose turn overlaps a face of
  someone else (interview situations)`,
		`for $t in doc("broadcast.xml")//turn
		 where exists($t/select-wide::face[@who != $t/@speaker])
		 return concat(string($t/@speaker), "@", string($t/@start))`)

	// Output:
	// Querying three overlapping annotation hierarchies of one stream
	//
	// Shots in which the minister speaks (select-wide = overlap):
	//   //turn[@speaker="minister"]/select-wide::shot
	//   -> [shot 3]
	//
	// Speaker turns fully inside shot 3 (select-narrow = containment):
	//   //shot[@no="3"]/select-narrow::turn
	//   -> [minister reporter]
	//
	// Faces on screen while their owner is NOT speaking (reject-wide):
	//   faces whose region does not overlap any same-person turn
	//   -> []
	//
	// Shots in which the anchor's face never appears (reject-wide is an
	//   anti-join over the WHOLE context sequence, section 3.1):
	//   //face[@who="anchor"]/reject-wide::shot
	//   -> [shot 2]
	//
	// Cross-hierarchy join: speakers whose turn overlaps a face of
	//   someone else (interview situations)
	//   -> [anchor@0:02 reporter@4:52]
}
