package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"soxq"
)

// Server throughput benchmark corpus: 8 members x 250 scenes x 60 hits =
// 122k regions across the corpus (the same scene/hit shape as the engine's
// BenchmarkStreamExec corpus, sharded across documents).
const (
	benchDocs          = 8
	benchScenes        = 250
	benchHitsPerScene  = 60
	benchRowsPerMember = benchScenes * benchHitsPerScene
)

func benchDoc(scenes, hitsPerScene int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for s := 0; s < scenes; s++ {
		base := s * 1000
		fmt.Fprintf(&sb, `<scene id="s%d" start="%d" end="%d"/>`, s, base, base+999)
		for h := 0; h < hitsPerScene; h++ {
			off := base + 10 + h*10
			fmt.Fprintf(&sb, `<hit start="%d" end="%d"/>`, off, off+5)
		}
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// benchQuery is the corpus query the benchmark and the wire tests stream:
// every hit inside a scene, benchDocs * benchRowsPerMember rows.
const benchQuery = `doc("bench")//scene/select-narrow::hit`

// benchEngine loads the benchmark corpus "bench" into a fresh engine.
func benchEngine(tb testing.TB) *soxq.Engine {
	tb.Helper()
	eng := soxq.New()
	doc := benchDoc(benchScenes, benchHitsPerScene)
	members := make([]string, benchDocs)
	for i := range members {
		members[i] = fmt.Sprintf("doc%02d.xml", i)
		if err := eng.LoadXML(members[i], []byte(doc)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.CreateCorpus("bench", members...); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkServerThroughput measures one full HTTP query round trip over the
// 122k-region corpus: request in, 120k NDJSON rows streamed out, connection
// reused across iterations. The shards drain one after another; the
// sequential cell is the memory-guarded baseline cell in BENCH_stream.json.
func BenchmarkServerThroughput(b *testing.B) {
	eng := benchEngine(b)
	s := newServer(eng, serverConfig{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	q := url.QueryEscape(benchQuery)
	wantRows := benchDocs * benchRowsPerMember

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		url := fmt.Sprintf("%s/query?corpus=bench&q=%s", ts.URL, q)
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != 200 {
				resp.Body.Close()
				b.Fatalf("status %d", resp.StatusCode)
			}
			rows := -1 // the trailer line is not a row
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				rows++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if rows != wantRows {
				b.Fatalf("%d rows, want %d", rows, wantRows)
			}
		}
	})
}
