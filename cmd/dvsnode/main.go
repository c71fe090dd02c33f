// Command dvsnode runs one process of a TCP-connected group: the deployable
// form of the stack. Lines read from stdin are broadcast; totally-ordered
// deliveries and primary-view changes are printed to stdout.
//
// Example (three shells):
//
//	dvsnode -id 0 -n 3 -listen 127.0.0.1:7000 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002
//	dvsnode -id 1 -n 3 -listen 127.0.0.1:7001 -peers 0=127.0.0.1:7000,2=127.0.0.1:7002
//	dvsnode -id 2 -n 3 -listen 127.0.0.1:7002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001
//
// With -groups N > 1 the node runs N independent groups over the same TCP
// transport (every peer must use the same -groups). Stdin lines then route
// by consistent hash — "key:payload" submits payload under key, a bare line
// keys on itself — and "@g0,g1:payload" atomically multicasts the payload
// to the listed groups. Deliveries are printed tagged with their group.
package main

import (
	"bufio"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	dvs "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvsnode:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		id       = flag.Int("id", 0, "this process's id")
		n        = flag.Int("n", 3, "universe size")
		listen   = flag.String("listen", "127.0.0.1:7000", "listen address")
		peers    = flag.String("peers", "", "comma-separated id=host:port pairs")
		static   = flag.Bool("static", false, "use static majority primaries instead of dynamic")
		groups   = flag.Int("groups", 1, "independent groups sharing this node's transport (sharded mode; incompatible with -trace-dir)")
		tick     = flag.Duration("tick", 20*time.Millisecond, "heartbeat tick")
		metrics  = flag.String("metrics", "", "serve per-layer stats over HTTP at this address (expvar at /debug/vars, JSON at /stats)")
		traceDir = flag.String("trace-dir", "", "stream this node's protocol trace to chunked segments in this directory; replay with dvsim -replay <dir>")
		traceWin = flag.Int("trace-window", 0, "macro-steps per trace chunk (0 = default)")
		check    = flag.Bool("check", false, "run the in-process conformance checker on every group (stats in the metrics Check section; exit status 1 if it found anything)")
	)
	flag.Parse()

	peerMap, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	mode := dvs.ModeDynamic
	if *static {
		mode = dvs.ModeStatic
	}
	cfg := dvs.NodeConfig{
		ID:           *id,
		Processes:    *n,
		Listen:       *listen,
		Peers:        peerMap,
		Mode:         mode,
		Groups:       *groups,
		TickInterval: *tick,
		Online:       *check,
	}
	var stream *dvs.TraceStream
	if *traceDir != "" {
		stream, err = dvs.NewTraceStream(*traceDir, dvs.TraceStreamOptions{WindowSteps: *traceWin})
		if err != nil {
			return err
		}
		cfg.Stream = stream
	}
	node, err := dvs.StartNode(cfg)
	if err != nil {
		if stream != nil {
			stream.Close()
		}
		return err
	}
	if stream != nil {
		// Declared before node.Close so the stream is sealed after the node
		// has stopped observing: the deferred calls run in reverse order.
		defer func() {
			if err := stream.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dvsnode: sealing trace stream:", err)
			}
		}()
	}
	// Closing the node replays the tail of the run through the checkers, so
	// their summary — and the exit status it decides — comes after it.
	defer func() {
		node.Close()
		if *check {
			if cerr := checkSummary(node.CheckStats()); err == nil {
				err = cerr
			}
		}
	}()
	fmt.Printf("node %d listening on %s (%s primaries)\n", *id, node.Addr(), mode)
	if *metrics != "" {
		addr, err := serveMetrics(*metrics, node)
		if err != nil {
			return err
		}
		fmt.Printf("metrics on http://%s/stats (expvar at /debug/vars)\n", addr)
	}

	for _, g := range node.Groups() {
		p, ok := node.Group(g)
		if !ok {
			continue
		}
		tag := ""
		if *groups > 1 {
			tag = fmt.Sprintf("g%d ", int(g))
		}
		go func() {
			for d := range p.Deliveries() {
				fmt.Printf("[%sdeliver] %q from %d\n", tag, d.Payload, d.Origin)
			}
		}()
		go func() {
			for e := range p.Views() {
				t := "view"
				if e.Established {
					t = "established"
				}
				fmt.Printf("[%s%s] %s\n", tag, t, e.View)
			}
		}()
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if *groups == 1 {
			if !node.Broadcast(line) {
				return nil
			}
			continue
		}
		if err := submitSharded(node, line); err != nil {
			fmt.Fprintln(os.Stderr, "dvsnode:", err)
		}
	}
	return sc.Err()
}

// checkSummary prints the exit line of the in-process checkers (summed over
// the node's groups) and returns an error if they found anything or stopped
// before the end of the run.
func checkSummary(cs dvs.OnlineCheckStats) error {
	fmt.Printf("online checker: %d checks over %d steps (%d re-stepped), %d divergences, %d violations, stalls=%d\n",
		cs.Checks, cs.Steps, cs.StepsChecked, cs.Divergences, cs.Violations, cs.Stalls)
	for _, f := range cs.Findings {
		fmt.Fprintln(os.Stderr, "dvsnode: online checker:", f)
	}
	if cs.Divergences+cs.Violations > 0 || cs.LastError != "" {
		return fmt.Errorf("online checker: %d divergences, %d violations, first: %s", cs.Divergences, cs.Violations, cs.LastError)
	}
	return nil
}

// submitSharded routes one stdin line of a sharded node: "@g0,g1:payload"
// is an atomic multicast to the listed groups, "key:payload" a keyed
// submission, and anything else keys on the whole line.
func submitSharded(node *dvs.Node, line string) error {
	if rest, ok := strings.CutPrefix(line, "@"); ok {
		spec, payload, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("bad multicast %q (want @g0,g1:payload)", line)
		}
		var dests []dvs.GroupID
		for _, part := range strings.Split(spec, ",") {
			g, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad multicast group %q: %v", part, err)
			}
			dests = append(dests, dvs.GroupID(g))
		}
		return node.SubmitMulti(dests, payload)
	}
	key, payload, ok := strings.Cut(line, ":")
	if !ok {
		key, payload = line, line
	}
	if !node.Submit(key, payload) {
		return fmt.Errorf("group %d stopped", int(node.SubmitKey(key)))
	}
	return nil
}

// serveMetrics exposes the node's per-layer counters over HTTP: the
// standard expvar surface at /debug/vars (publishing the snapshot under the
// "dvsnode" key) and a plain JSON endpoint at /stats. It returns the actual
// listen address (useful with ":0").
func serveMetrics(addr string, node *dvs.Node) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics listen: %w", err)
	}
	expvar.Publish("dvsnode", expvar.Func(func() any { return node.StatsSnapshot() }))
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(node.StatsSnapshot())
	})
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

func parsePeers(s string) (map[int]string, error) {
	out := make(map[int]string)
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", pair)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", idStr, err)
		}
		out[id] = addr
	}
	return out, nil
}
