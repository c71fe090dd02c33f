package dvs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func collectDeliveries(p *Process, out *[]Delivery) {
	for {
		select {
		case d := <-p.Deliveries():
			*out = append(*out, d)
		default:
			return
		}
	}
}

func waitDeliveries(t *testing.T, p *Process, out *[]Delivery, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		collectDeliveries(p, out)
		if len(*out) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: got %d of %d deliveries", len(*out), n)
}

func assertPrefixConsistent(t *testing.T, delivered [][]Delivery) {
	t.Helper()
	for i := range delivered {
		for j := i + 1; j < len(delivered); j++ {
			a, b := delivered[i], delivered[j]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					t.Fatalf("processes %d and %d diverge at %d: %v vs %v", i, j, k, a[k], b[k])
				}
			}
		}
	}
}

func TestClusterBasicDelivery(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if !cl.Process(0).Broadcast(fmt.Sprintf("m%d", i)) {
			t.Fatal("broadcast failed")
		}
	}
	var got []Delivery
	waitDeliveries(t, cl.Process(4), &got, 10, 20*time.Second)
	for i, d := range got {
		if d.Origin != 0 || d.Payload != fmt.Sprintf("m%d", i) {
			t.Fatalf("delivery %d = %+v (per-origin FIFO violated?)", i, d)
		}
	}
}

func TestClusterPartitionHealConsistency(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 5; i++ {
		cl.Process(i % 5).Broadcast(fmt.Sprintf("s%d", i))
	}
	time.Sleep(200 * time.Millisecond)

	cl.Partition([]int{0, 1, 2}, []int{3, 4})
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 5; i++ {
		cl.Process(i % 3).Broadcast(fmt.Sprintf("p%d", i))
	}
	cl.Process(3).Broadcast("minority")
	time.Sleep(250 * time.Millisecond)

	// The majority side must have formed and established a primary {0,1,2}.
	v, ok := cl.Process(0).CurrentPrimary()
	if !ok || v.Members.Len() != 3 {
		t.Fatalf("majority primary = %v, %v", v, ok)
	}
	if !cl.Process(0).Established() {
		t.Fatal("majority primary not established")
	}
	// The minority must still be at the old (pre-partition) primary.
	v3, ok3 := cl.Process(3).CurrentPrimary()
	if !ok3 || v3.Members.Len() != 5 {
		t.Fatalf("minority should be stuck at the full view, got %v", v3)
	}

	cl.Heal()
	time.Sleep(400 * time.Millisecond)
	cl.Process(2).Broadcast("final")

	delivered := make([][]Delivery, 5)
	// Everyone eventually delivers: 5 stable + 5 partition + minority +
	// final = 12 messages.
	for i := 0; i < 5; i++ {
		waitDeliveries(t, cl.Process(i), &delivered[i], 12, 20*time.Second)
	}
	assertPrefixConsistent(t, delivered)

	// The minority's buffered message must be delivered after the merge
	// and after the majority's partition-time messages.
	seq := delivered[0]
	idxMinority, idxP0 := -1, -1
	for k, d := range seq {
		if d.Payload == "minority" {
			idxMinority = k
		}
		if d.Payload == "p0" {
			idxP0 = k
		}
	}
	if idxMinority < 0 || idxP0 < 0 || idxMinority < idxP0 {
		t.Errorf("minority message at %d, majority partition message at %d", idxMinority, idxP0)
	}
}

func TestClusterMinorityMakesNoProgress(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(100 * time.Millisecond)

	cl.Partition([]int{0, 1}, []int{2, 3, 4})
	time.Sleep(200 * time.Millisecond)
	cl.Process(0).Broadcast("stuck")
	time.Sleep(250 * time.Millisecond)
	var got []Delivery
	collectDeliveries(cl.Process(0), &got)
	for _, d := range got {
		if d.Payload == "stuck" {
			t.Fatal("minority delivered a message broadcast during the partition")
		}
	}
}

func TestClusterStaticMode(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 5, Mode: ModeStatic, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(100 * time.Millisecond)
	cl.Process(1).Broadcast("x")
	var got []Delivery
	waitDeliveries(t, cl.Process(2), &got, 1, 20*time.Second)
	if got[0].Payload != "x" || got[0].Origin != 1 {
		t.Fatalf("delivery = %+v", got[0])
	}
	// Static majority {0,1,2} still works...
	cl.Partition([]int{0, 1, 2}, []int{3, 4})
	time.Sleep(250 * time.Millisecond)
	cl.Process(0).Broadcast("maj")
	var got0 []Delivery
	waitDeliveries(t, cl.Process(0), &got0, 2, 20*time.Second)
}

func TestClusterCrash(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(100 * time.Millisecond)
	cl.Crash(3)
	// The survivors form a primary without 3 and keep delivering.
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, ok := cl.Process(0).CurrentPrimary()
		if ok && v.Members.Len() == 3 && !v.Contains(3) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no survivor primary; have %v %v", v, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.Process(1).Broadcast("after-crash")
	var got []Delivery
	waitDeliveries(t, cl.Process(2), &got, 1, 20*time.Second)
}

func TestClusterLateJoiner(t *testing.T) {
	// Process 3 is outside v0; membership admits it into later views and
	// it receives subsequent messages.
	cl, err := NewCluster(Config{Processes: 4, Initial: []int{0, 1, 2}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, ok := cl.Process(3).CurrentPrimary()
		if ok && v.Contains(3) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late joiner never entered a primary view")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.Process(0).Broadcast("welcome")
	var got []Delivery
	waitDeliveries(t, cl.Process(3), &got, 1, 20*time.Second)
	if got[0].Payload != "welcome" {
		t.Fatalf("delivery = %+v", got[0])
	}
}

func TestClusterLossyNetwork(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 3, Seed: 7, LossRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 20; i++ {
		cl.Process(i % 3).Broadcast(fmt.Sprintf("l%d", i))
	}
	delivered := make([][]Delivery, 3)
	for i := 0; i < 3; i++ {
		waitDeliveries(t, cl.Process(i), &delivered[i], 20, 10*time.Second)
	}
	assertPrefixConsistent(t, delivered)
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("zero processes accepted")
	}
	if _, err := NewCluster(Config{Processes: 3, Initial: []int{7}}); err == nil {
		t.Error("out-of-range initial member accepted")
	}
}

func TestClusterStatsAndViews(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Process(0).Broadcast("x")
	var got []Delivery
	waitDeliveries(t, cl.Process(0), &got, 1, 20*time.Second)
	ts, ds := cl.Process(0).Stats()
	if ts.Broadcasts != 1 || ts.Delivered == 0 {
		t.Errorf("tob stats = %+v", ts)
	}
	if ds.VSViews == 0 {
		t.Errorf("dvsg stats = %+v", ds)
	}
	if cl.NetStats().Delivered == 0 {
		t.Error("fabric stats empty")
	}
	if cl.InitialView().Members.Len() != 3 {
		t.Error("initial view wrong")
	}
	if got := cl.Processes(); len(got) != 3 || got[1].ID() != 1 {
		t.Error("Processes accessor wrong")
	}
}

func TestClusterBroadcastAfterClose(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := cl.Process(0)
	cl.Close()
	if p.Broadcast("x") {
		t.Error("broadcast after close should fail")
	}
	if _, ok := p.CurrentPrimary(); ok {
		t.Error("CurrentPrimary after close should fail")
	}
}

func TestLeaderElection(t *testing.T) {
	cl, err := NewCluster(Config{Processes: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if l, ok := cl.Process(3).Leader(); ok {
			if l != 0 {
				t.Fatalf("leader = %d, want 0", l)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cl.Process(0).IsLeader() || cl.Process(2).IsLeader() {
		t.Error("IsLeader wrong")
	}
	// Crash the leader: the survivors elect the next-lowest id.
	cl.Crash(0)
	deadline = time.Now().Add(20 * time.Second)
	for {
		if l, ok := cl.Process(3).Leader(); ok && l == 1 {
			break
		}
		if time.Now().After(deadline) {
			l, ok := cl.Process(3).Leader()
			t.Fatalf("no failover; leader=%v ok=%v", l, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// At most one leader among live processes.
	leaders := 0
	for i := 1; i < 4; i++ {
		if cl.Process(i).IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want 1", leaders)
	}
}

// TestConstructorsRefuseIDsBeyondProcSet: a process set holds the ids 0–63,
// so every constructor refuses a larger universe and says so.
func TestConstructorsRefuseIDsBeyondProcSet(t *testing.T) {
	_, errC := NewCluster(Config{Processes: 65})
	_, errS := NewShardedCluster(ShardedConfig{Processes: 65, Groups: 1})
	_, errN := StartNode(NodeConfig{ID: 0, Processes: 65, Listen: "127.0.0.1:0"})
	for name, err := range map[string]error{"NewCluster": errC, "NewShardedCluster": errS, "StartNode": errN} {
		if err == nil || !strings.Contains(err.Error(), "0–63") {
			t.Errorf("%s with 65 processes: %v", name, err)
		}
	}
	c, err := NewCluster(Config{Processes: 64, Initial: []int{0, 63}})
	if err != nil {
		t.Fatalf("64 processes: %v", err)
	}
	c.Close()
}
