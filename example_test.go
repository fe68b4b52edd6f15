package soxq_test

import (
	"fmt"
	"log"

	"soxq"
	"soxq/internal/blob"
)

// The multimedia document of the paper's Figure 1: video shots and music
// tracks annotate time regions of the same stream.
const sampleXML = `<sample>
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
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(sampleXML)); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(`
	    for $s in doc("sample.xml")//music[@artist = "U2"]/select-wide::shot
	    return string($s/@id)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Strings())
	// Output: [Intro Interview]
}

func ExamplePrepared_Exec() {
	eng := soxq.New()
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(sampleXML)); err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(`doc("sample.xml")//music[@artist = "U2"]/reject-wide::shot/@id`)
	if err != nil {
		log.Fatal(err)
	}
	// Run the same join with the paper's per-iteration baseline algorithm.
	res, err := prep.Exec(soxq.Config{Mode: soxq.ModeBasic})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.String())
	// Output: id="Outro"
}

func ExamplePrepared_Stream() {
	eng := soxq.New()
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(sampleXML)); err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(`
	    for $m in doc("sample.xml")//music
	    return string-join(for $s in $m/select-wide::shot return string($s/@id), " ")`)
	if err != nil {
		log.Fatal(err)
	}
	// Stream pulls results through a bounded-memory cursor pipeline; the
	// full sequence is never materialised.
	cur, err := prep.Stream(soxq.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
		fmt.Println(cur.Value().String())
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Intro Interview
	// Interview Outro
}

func ExamplePrepared_Explain() {
	eng := soxq.New()
	if err := eng.LoadXML("d.xml", []byte(`<doc>
	  <music artist="U2" start="0" end="31"/>
	  <music artist="Bach" start="52" end="94"/>
	  <shot id="Intro" start="0" end="8"/>
	  <shot id="Interview" start="8" end="64"/>
	  <shot id="Outro" start="64" end="94"/>
	</doc>`)); err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(`doc("d.xml")//music/select-narrow::shot`)
	if err != nil {
		log.Fatal(err)
	}
	// Explain shows what compilation knows; for observed row counts and
	// the join algorithm that ran, use Analyze instead.
	fmt.Print(prep.Explain().String())
	// Output:
	// options: type=xs:integer start=@start end=@end
	// plan:
	//   path doc("d.xml")
	//     step descendant::music (fused //)
	//     step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter}
	// stream:
	//   path [pipelined] final StandOff step select-narrow streams per context chunk through a watermark-gated pending-pre set when the context is single-document; context descendant::music read from the region index by name when the path head is one document node
}

func ExampleEngine_LoadStandOff() {
	eng := soxq.New()
	// Annotations carry [start,end] byte regions into the BLOB; the
	// document itself holds no text.
	err := eng.LoadStandOff("notes.xml",
		[]byte(`<doc start="0" end="10">
		          <note kind="greeting" start="0" end="4"/>
		          <note kind="subject"  start="6" end="10"/>
		        </doc>`),
		blob.FromString("Hello world"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(`
	    for $n in doc("notes.xml")//note[@kind = "subject"]
	    return so:blob-text($n)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Strings())
	// Output: [world]
}

func ExampleEngine_ConvertToStandOff() {
	eng := soxq.New()
	if err := eng.LoadXML("plain.xml", []byte(
		`<book><chapter>Call me Ishmael.</chapter><chapter>Loomings.</chapter></book>`)); err != nil {
		log.Fatal(err)
	}
	// Move the text to a BLOB and annotate every element with its region.
	if err := eng.ConvertToStandOff("plain.xml", "so.xml", false, 1); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(`
	    for $c in doc("so.xml")//book/select-narrow::chapter
	    return concat(string(so:start($c)), "-", string(so:end($c)))`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Strings())
	// Output: [0-15 16-24]
}
