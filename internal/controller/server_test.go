package controller

import (
	"net"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// TestConcurrentReceiveThenFinish: many goroutines ingesting into one
// controller at once lose no record.
func TestConcurrentReceiveThenFinish(t *testing.T) {
	a := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 5, CaptureValues: true})

	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 50; i++ {
				a.Receive(afrPkt(packet.AFR{
					Key: fk(g*100 + i), SubWindow: 0, Attr: 10, Seq: uint32(g*50 + i),
				}))
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	res := a.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if len(res[0].Values) != 400 {
		t.Fatalf("flows = %d want 400", len(res[0].Values))
	}
	if a.TableSize() != 0 { // tumbling(1): everything retired
		t.Fatalf("table size = %d", a.TableSize())
	}
}

func TestCollectorOverUDP(t *testing.T) {
	// Controller side: UDP listener feeding a controller.
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 3, CaptureValues: true})
	col := NewCollector(serverConn, sink)

	// Switch side: send AFR datagrams plus the trigger.
	switchConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer switchConn.Close()

	trig := &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: 20}}
	if err := SendDatagram(switchConn, col.Addr(), trig); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := afrPkt(packet.AFR{Key: fk(i), SubWindow: 0, Attr: uint64(i), Seq: uint32(i)})
		if err := SendDatagram(switchConn, col.Addr(), p); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage datagram: must be dropped, not crash the loop.
	if _, err := switchConn.WriteTo([]byte("not omniwindow"), col.Addr()); err != nil {
		t.Fatal(err)
	}

	// Wait until every valid datagram has been ingested and the garbage
	// one dropped; then the reliability check must see every sequence.
	deadline := time.Now().Add(5 * time.Second)
	for col.Received() < 21 || col.Drops() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("datagrams not delivered: %d ingested, %d dropped; missing %v",
				col.Received(), col.Drops(), sink.MissingSeqs(0))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if missing := sink.MissingSeqs(0); missing != nil {
		t.Fatalf("AFRs not all received; missing %v", missing)
	}

	res := sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if len(res[0].Values) != 20 {
		t.Fatalf("flows = %d", len(res[0].Values))
	}
	for i := 0; i < 20; i++ {
		if res[0].Values[fk(i)] != uint64(i) {
			t.Fatalf("flow %d = %d", i, res[0].Values[fk(i)])
		}
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if col.Drops() != 1 {
		t.Fatalf("drops = %d want 1", col.Drops())
	}
}
