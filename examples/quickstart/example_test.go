// Quickstart: load the multimedia annotation document of the paper's
// Figure 1 and run the four StandOff joins of its section 3.1 table.
//
//	go test -v ./examples/quickstart
package quickstart

import (
	"fmt"
	"log"

	"soxq"
)

// The stand-off annotations of Figure 1: video shots and music tracks
// annotate time regions of the same video BLOB. Regions use the paper's
// timecode notation.
const sample = `<sample>
  <video>
    <shot id="Intro" start="0:00" end="0:08"/>
    <shot id="Interview" start="0:08" end="1:04"/>
    <shot id="Outro" start="1:04" end="1:34"/>
  </video>
  <audio>
    <music artist="U2" start="0:00" end="0:31"/>
    <music artist="Bach" start="0:52" end="1:34"/>
  </audio>
</sample>`

func Example() {
	eng := soxq.New()
	// Positions are [hh:]mm:ss timecodes rather than integers.
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(sample)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("StandOff joins between U2 music and video shots (paper section 3.1):")
	fmt.Println()
	for _, axis := range []string{"select-narrow", "select-wide", "reject-narrow", "reject-wide"} {
		q := fmt.Sprintf(
			`for $s in doc("sample.xml")//music[@artist = "U2"]/%s::shot
			 return string($s/@id)`, axis)
		res, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-45s %v\n", axis+"(//music[artist=\"U2\"], //shot)", res.Strings())
	}

	fmt.Println()
	fmt.Println(`Reading of the table:
  select-narrow : shots during which U2 played the whole time
  select-wide   : shots during which U2 played at some point
  reject-narrow : shots during which U2 paused at some point
  reject-wide   : shots entirely without U2`)

	// Output:
	// StandOff joins between U2 music and video shots (paper section 3.1):
	//
	//   select-narrow(//music[artist="U2"], //shot)   [Intro]
	//   select-wide(//music[artist="U2"], //shot)     [Intro Interview]
	//   reject-narrow(//music[artist="U2"], //shot)   [Interview Outro]
	//   reject-wide(//music[artist="U2"], //shot)     [Outro]
	//
	// Reading of the table:
	//   select-narrow : shots during which U2 played the whole time
	//   select-wide   : shots during which U2 played at some point
	//   reject-narrow : shots during which U2 paused at some point
	//   reject-wide   : shots entirely without U2
}
