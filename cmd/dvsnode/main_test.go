package main

import (
	"encoding/json"
	"net"
	"net/http"
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
	var stats struct{ Net map[string]any }
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
}
