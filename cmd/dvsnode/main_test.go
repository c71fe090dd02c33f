package main

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	dvs "repro"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("1=127.0.0.1:7001, 2=10.0.0.2:7002")
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != "127.0.0.1:7001" || got[2] != "10.0.0.2:7002" {
		t.Errorf("got %v", got)
	}
	if m, err := parsePeers(""); err != nil || len(m) != 0 {
		t.Error("empty peers should parse to empty map")
	}
	if _, err := parsePeers("nonsense"); err == nil {
		t.Error("missing = accepted")
	}
	if _, err := parsePeers("x=127.0.0.1:1"); err == nil {
		t.Error("non-numeric id accepted")
	}
}

// TestMetricsExposeTransportRefusals: what the TCP transport refuses shows in
// /stats. A connection that opens with something other than the transport's
// preamble is closed and counted as a refused peer.
func TestMetricsExposeTransportRefusals(t *testing.T) {
	node, err := dvs.StartNode(dvs.NodeConfig{ID: 0, Processes: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr, err := serveMetrics("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	var stats struct{ Net, TOB map[string]any }
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Net["PeersRefused"] == 1.0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("PeersRefused never reached 1 in /stats: %v", stats.Net)
		}
	}
	if _, ok := stats.Net["RecvMalformed"]; !ok {
		t.Errorf("/stats has no RecvMalformed counter: %v", stats.Net)
	}
	for _, k := range []string{"HistoryBase", "HistoryRetained", "HistoryPinned", "BaseMismatch"} {
		if _, ok := stats.TOB[k]; !ok {
			t.Errorf("/stats has no TOB.%s: %v", k, stats.TOB)
		}
	}
}

// TestCheckSummaryCoversEveryGroupAndDecidesExit: -check on a node with
// several groups reports all of them (the counters are summed over the
// groups, not group 0's), a clean run exits 0, and a finding or a checker
// that stopped early is an error — exit status 1.
func TestCheckSummaryCoversEveryGroupAndDecidesExit(t *testing.T) {
	node, err := dvs.StartNode(dvs.NodeConfig{ID: 0, Processes: 1, Groups: 3, Listen: "127.0.0.1:0", Online: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for i := 0; i < 30; i++ {
		if err := submitSharded(node, "k"+strconv.Itoa(i)+":v"); err != nil {
			t.Fatal(err)
		}
	}
	// groups counts the groups whose checker has observed something, and
	// their steps.
	groups := func() (busy int, steps uint64) {
		for _, g := range node.Groups() {
			p, _ := node.Group(g)
			if cs := p.CheckStats(); cs.Steps > 0 {
				busy++
				steps += cs.Steps
			}
		}
		return busy, steps
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if busy, _ := groups(); busy >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("thirty keys never reached two groups")
		}
	}
	node.Close()
	sum := node.CheckStats()
	if _, steps := groups(); sum.Steps != steps || sum.Steps != sum.StepsChecked {
		t.Errorf("the groups observed %d steps; the node reports %d observed, %d re-stepped", steps, sum.Steps, sum.StepsChecked)
	}
	if got := node.StatsSnapshot().Check; got.Steps != sum.Steps {
		t.Errorf("StatsSnapshot().Check has %d steps, CheckStats %d", got.Steps, sum.Steps)
	}
	if err := checkSummary(sum); err != nil {
		t.Errorf("clean run: %v", err)
	}
	flagged := sum
	flagged.Divergences, flagged.LastError = 1, "node 0 to step 7: recorded [], replayed [FxConfirm]"
	if checkSummary(flagged) == nil {
		t.Error("a divergence did not fail the run")
	}
	stopped := sum
	stopped.LastError = "conform: to event type main.x has no wire tag"
	if checkSummary(stopped) == nil {
		t.Error("a checker that stopped on an unencodable record did not fail the run")
	}
}
