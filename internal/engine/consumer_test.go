package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// consumerHarness wires a consumer with a capture endpoint for its acks.
type consumerHarness struct {
	cons *Consumer
	ctx  *ExecContext

	mu   sync.Mutex
	acks []*transport.Message
}

func newConsumerHarness(t *testing.T, producers int, stateful bool) *consumerHarness {
	t.Helper()
	clock := vtime.NewClock(time.Microsecond)
	net := simnet.NewNetwork(clock)
	net.AddNode("src")
	net.AddNode("sink")
	tr := transport.NewInProc(net)
	h := &consumerHarness{}
	addrs := make([]Addr, producers)
	for i := range addrs {
		addrs[i] = Addr{Node: "src", Service: "prod"}
	}
	tr.Register("src", "prod", func(_ simnet.NodeID, m *transport.Message) {
		h.mu.Lock()
		h.acks = append(h.acks, m)
		h.mu.Unlock()
	})
	h.ctx = &ExecContext{Clock: clock, Node: net.Node("sink"),
		Meter: vtime.NewMeter(clock), Costs: DefaultCosts(), Buckets: 16}
	h.cons = newConsumer("EX", 0, addrs, stateful, newFlowGate(), tr, "sink")
	if err := h.cons.Open(h.ctx); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *consumerHarness) ackMessages() []*transport.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*transport.Message(nil), h.acks...)
}

// deliver pushes a data buffer from producer 0.
func (h *consumerHarness) deliver(t *testing.T, startSeq int64, ckpt int64, buckets []int32, tuples ...relation.Tuple) {
	t.Helper()
	msg := &transport.Message{
		Kind: transport.KindData, Exchange: "EX",
		ProducerIdx: 0, ConsumerIdx: 0,
		StartSeq: startSeq, Checkpoint: ckpt,
		Tuples: tuples, Buckets: buckets,
	}
	if err := h.cons.Deliver(msg); err != nil {
		t.Fatal(err)
	}
}

// pop takes one tuple through a single-tuple batch; ok is false at end of
// stream. Like every NextBatch call it first finishes the previous pop.
func (h *consumerHarness) pop(t *testing.T) (relation.Tuple, bool) {
	t.Helper()
	tp, ok, err := popOne(h.cons)
	if err != nil {
		t.Fatal(err)
	}
	return tp, ok
}

func popOne(c *Consumer) (relation.Tuple, bool, error) {
	b := relation.NewBatch(1)
	n, err := c.NextBatch(b)
	if err != nil || n == 0 {
		return nil, false, err
	}
	return b.Tuples[0], true, nil
}

func TestConsumerFIFOAndEOS(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 0, nil, intTuple(1), intTuple(2))
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"}); err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		tp, ok := h.pop(t)
		if !ok || tp[0].AsInt() != int64(want) {
			t.Fatalf("pop %d: %v %v", want, tp, ok)
		}
	}
	if _, ok := h.pop(t); ok {
		t.Fatal("expected EOS")
	}
	consumed, _, queued := h.cons.Stats()
	if consumed != 2 || queued != 0 {
		t.Fatalf("stats: consumed=%d queued=%d", consumed, queued)
	}
}

// TestConsumerBatchDrainFIFO drains tuples delivered across several buffers
// at every reference batch limit: the consumer must hand them out in
// delivery order, exactly once, and acknowledge every checkpoint once the
// stream ends.
func TestConsumerBatchDrainFIFO(t *testing.T) {
	for _, limit := range refLimits {
		h := newConsumerHarness(t, 1, false)
		var want []relation.Tuple
		for seq := 1; seq <= 40; seq += 10 {
			var buf []relation.Tuple
			for i := seq; i < seq+10; i++ {
				buf = append(buf, intTuple(i))
			}
			h.deliver(t, int64(seq), int64(seq+9), nil, buf...)
			want = append(want, buf...)
		}
		if err := h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"}); err != nil {
			t.Fatal(err)
		}
		got := drainOpened(t, h.cons, limit)
		sameTuplesLabeled(t, "consumer", want, got)
		waitUntil(t, func() bool { return len(h.ackMessages()) == 4 }, "all four checkpoints acked")
	}
}

// waitUntil polls cond (asynchronous acks) until it holds or fails the test.
func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConsumerDeliverRacesAddProducer runs live-join AddProducer calls
// against concurrent data delivery. Deliver bounds-checks the producer index
// against streams, which AddProducer grows, so the check must run under the
// gate lock; `go test -race` flags it otherwise.
func TestConsumerDeliverRacesAddProducer(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	const joins, buffers = 50, 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < joins; i++ {
			h.cons.AddProducer(Addr{Node: "src", Service: "prod"})
		}
	}()
	for i := 0; i < buffers; i++ {
		h.deliver(t, int64(i+1), 0, nil, intTuple(i))
	}
	wg.Wait()
	_, _, queued := h.cons.Stats()
	if queued != buffers {
		t.Fatalf("queued %d tuples, want %d", queued, buffers)
	}
	// A producer that joined mid-stream is addressable.
	msg := &transport.Message{Kind: transport.KindData, Exchange: "EX", ProducerIdx: joins,
		StartSeq: 1, Tuples: []relation.Tuple{intTuple(-1)}}
	if err := h.cons.Deliver(msg); err != nil {
		t.Fatalf("delivery from joined producer %d: %v", joins, err)
	}
}

func TestConsumerAcksCompletedCheckpoints(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 3, nil, intTuple(1), intTuple(2), intTuple(3))
	// Pop all three; the third's processing completes at the next call.
	for i := 0; i < 3; i++ {
		h.pop(t)
	}
	if len(h.ackMessages()) != 0 {
		t.Fatal("acked before the interval was fully processed")
	}
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	h.pop(t) // EOS; finishes the in-flight tuple and triggers the ack
	acks := h.ackMessages()
	if len(acks) != 1 || acks[0].Checkpoint != 3 || len(acks[0].Except) != 0 {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestConsumerDiscardReportsAndTaints(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 4, nil, intTuple(1), intTuple(2), intTuple(3), intTuple(4))
	h.pop(t) // tuple 1 in flight
	// Recall everything still queued (seqs 2..4).
	var report map[int][]int64
	h.cons.gate.mu.Lock()
	report = h.cons.discardLocked(nil)
	h.cons.gate.mu.Unlock()
	if len(report[0]) != 3 {
		t.Fatalf("discard report = %v", report)
	}
	// Finish tuple 1; checkpoint 4 completes with the discarded seqs listed
	// as exceptions.
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	h.pop(t)
	acks := h.ackMessages()
	if len(acks) != 1 || acks[0].Checkpoint != 4 || len(acks[0].Except) != 3 {
		t.Fatalf("acks = %+v", acks)
	}
}

func TestConsumerDiscardByBucket(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	h.deliver(t, 1, 0, []int32{3, 5, 3}, intTuple(1), intTuple(2), intTuple(3))
	h.cons.gate.mu.Lock()
	report := h.cons.discardLocked([]int32{3})
	queued := len(h.cons.queue)
	h.cons.gate.mu.Unlock()
	if len(report[0]) != 2 {
		t.Fatalf("bucket discard report = %v", report)
	}
	if queued != 1 {
		t.Fatalf("queued after discard = %d", queued)
	}
}

func TestConsumerStatefulNeverAcks(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	h.deliver(t, 1, 2, nil, intTuple(1), intTuple(2))
	h.cons.Deliver(&transport.Message{Kind: transport.KindEOS, Exchange: "EX"})
	for {
		if _, ok := h.pop(t); !ok {
			break
		}
	}
	if len(h.ackMessages()) != 0 {
		t.Fatal("stateful consumer acked")
	}
}

func TestConsumerReplayGoesToStateTarget(t *testing.T) {
	h := newConsumerHarness(t, 1, true)
	target := &fakeStateTarget{}
	h.cons.SetStateTarget(target)
	msg := &transport.Message{
		Kind: transport.KindData, Exchange: "EX", Replay: true,
		Tuples: []relation.Tuple{intTuple(1), intTuple(2)},
	}
	if err := h.cons.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	if target.inserted != 2 {
		t.Fatalf("state target received %d tuples", target.inserted)
	}
	if _, _, queued := h.cons.Stats(); queued != 0 {
		t.Fatal("replay tuples leaked into the queue")
	}
	// Replay without a target is an error.
	h.cons.SetStateTarget(nil)
	if err := h.cons.Deliver(msg); err == nil {
		t.Fatal("replay without state target accepted")
	}
}

type fakeStateTarget struct{ inserted int }

func (f *fakeStateTarget) InsertState(ts []relation.Tuple) { f.inserted += len(ts) }
func (f *fakeStateTarget) EvictBuckets([]int32)            {}
func (f *fakeStateTarget) StateSize() int                  { return f.inserted }

func TestConsumerRejectsBadMessages(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindAck}); err == nil {
		t.Error("ack accepted by consumer")
	}
	if err := h.cons.Deliver(&transport.Message{Kind: transport.KindData, ProducerIdx: 9}); err == nil {
		t.Error("bad producer index accepted")
	}
}

func TestConsumerBlocksUntilDelivery(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	got := make(chan relation.Tuple, 1)
	go func() {
		tp, _, _ := popOne(h.cons)
		got <- tp
	}()
	select {
	case <-got:
		t.Fatal("NextBatch returned without data")
	case <-time.After(20 * time.Millisecond):
	}
	h.deliver(t, 1, 0, nil, intTuple(42))
	select {
	case tp := <-got:
		if tp[0].AsInt() != 42 {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("NextBatch never woke up")
	}
}

func TestConsumerCloseUnblocks(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	done := make(chan bool, 1)
	go func() {
		_, ok, _ := popOne(h.cons)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	_ = h.cons.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("NextBatch returned a tuple after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock NextBatch")
	}
}

func TestFlowGateQuiesceWaitsForInflight(t *testing.T) {
	h := newConsumerHarness(t, 1, false)
	h.deliver(t, 1, 0, nil, intTuple(1), intTuple(2))
	h.pop(t) // tuple 1 now in flight
	quiesced := make(chan struct{})
	go h.cons.gate.quiesce(func() { close(quiesced) })
	select {
	case <-quiesced:
		t.Fatal("quiesce ran with a tuple in flight")
	case <-time.After(20 * time.Millisecond):
	}
	h.pop(t) // finishes tuple 1 (and pops tuple 2 once unpaused)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("quiesce never ran")
	}
}
