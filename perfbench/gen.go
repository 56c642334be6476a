package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: an open loop over one UDP socket with two I/O
// goroutines. The sender runs on the caller's goroutine and paces by
// tick: a periodic timerfd, read through the runtime poller, wakes it
// every tick — waiting holds neither a P nor a thread, so on two cores
// the server is not starved by its own load generator — and it sends,
// in sendmmsg batches, every query that fell due since its last wake.
// A query's due time is the tick boundary it belongs to, so traffic
// arrives in bursts of rate×tick and each query's latency runs from its
// due time — a stalled sender is charged to the queries it delayed.
// The receiver drains replies with recvmmsg, matches them to queries by
// DNS ID, checks each against the oracle and records its latency.

const (
	genTick      = 100 * time.Microsecond
	genBatch     = 64
	replyTimeout = 200 * time.Millisecond
	queryKindA   = 0
	queryKindTXT = 1
)

// verdict is the receiver's judgement of one reply.
type verdict uint8

const (
	verdictOK       verdict = iota
	verdictWrong            // no list that could have been live gives this answer
	verdictStale            // only a list retired before the query was sent gives it
	verdictMismatch         // the reply names another query (an ID reused after a loss)
)

// oracle judges replies. check gets the reply, the length of its
// (already matched) question section, the query it answers, the list
// generation live when the query was sent, and the newest
// generation that could have been live when the reply arrived. listed
// reports whether the reply listed the address (A queries only).
type oracle interface {
	check(resp []byte, qlen int, kind uint8, addr uint32, genSent, genRecv uint32) (v verdict, listed bool)
	liveGen() uint32   // generation whose SetList has returned
	newestGen() uint32 // newest generation that may be live
}

// slot tracks one DNS ID. state moves 0 (free) → 3 (sender writing) →
// 1 (outstanding) → 2 (receiver judging) → 0; the atomics order the
// plain fields between the two goroutines.
type slot struct {
	state atomic.Uint32
	kind  uint8
	addr  uint32
	gen   uint32
	due   int64 // ns since the generator's epoch
}

// followUp is a TXT query the receiver asks the sender to make after a
// listed answer; due is when the answer arrived.
type followUp struct {
	addr uint32
	due  int64
}

// phaseStats is one open-loop phase at a fixed rate.
type phaseStats struct {
	// Sender side.
	due       int64 // queries that fell due (A plus follow-ups)
	sent      int64 // queries the kernel accepted
	followUps int64 // TXT follow-ups among them
	busy      time.Duration
	lateNs    []uint32 // per tick: when its last query left, after its due time
	backlog   []int64  // queries owed a reply, sampled every 50 ticks
	wall      time.Duration

	// Receiver side, under generator.mu.
	answered, wrong, stale, unmatched, followDropped int64
	latNs                                            []uint32 // reply time minus due time; nil once run returns
	lat                                              latSummary

	lost        int64 // outstanding when the reply timeout ran out
	startNs     int64 // phase start, ns since the generator's epoch
	lastReplyNs int64 // latest reply, ns since the generator's epoch
}

// failed counts queries unanswered (lost or refused by the kernel),
// wrong or stale.
func (p *phaseStats) failed() int64 { return p.lost + p.wrong + p.stale }

// failFrac is failed over queries due.
func (p *phaseStats) failFrac() float64 {
	if p.due == 0 {
		return 0
	}
	return float64(p.failed()) / float64(p.due)
}

// answeredRate is replies per second, from the phase's start to its
// last reply.
func (p *phaseStats) answeredRate() float64 {
	if p.lastReplyNs <= p.startNs {
		return 0
	}
	return float64(p.answered) / (float64(p.lastReplyNs-p.startNs) / 1e9)
}

type generator struct {
	conn       *net.UDPConn
	send, recv *batchConn
	zone       []byte // wire-format zone, terminal root label included
	epoch      time.Time
	slots      []slot
	nextID     uint32
	or         oracle
	follow     chan followUp // nil: no TXT follow-ups

	mu       sync.Mutex
	ph       *phaseStats
	answered atomic.Int64

	recvDone chan struct{}
	tr       *tracer
	trRoot   spanRef
	scratch  [256]byte // receiver's expected-question buffer
	latBuf   []uint32  // latency buffer, reused phase after phase
}

// newGenerator dials server from one loopback socket and starts the
// receiver. followUps enables a TXT query after every listed answer.
func newGenerator(server *net.UDPAddr, zone string, or oracle, followUps bool, tr *tracer, root spanRef) (*generator, error) {
	conn, err := net.DialUDP("udp4", nil, server)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	send, err := newBatchConn(conn, genBatch, 512)
	if err != nil {
		conn.Close()
		return nil, err
	}
	recv, err := newBatchConn(conn, genBatch, 512)
	if err != nil {
		conn.Close()
		return nil, err
	}
	g := &generator{
		conn: conn, send: send, recv: recv,
		zone:     wireName(zone),
		epoch:    time.Now(),
		slots:    make([]slot, 1<<16),
		or:       or,
		recvDone: make(chan struct{}),
		tr:       tr,
		trRoot:   root,
	}
	if followUps {
		// The receiver must never block on a follow-up, and the sender
		// drains them once a tick; 16384 holds 80 ms of them at 200k
		// queries/s even if every answer were listed (about 8% are).
		g.follow = make(chan followUp, 1<<14)
	}
	go g.receive()
	return g, nil
}

// Close stops the receiver and waits for it.
func (g *generator) Close() {
	g.conn.Close()
	<-g.recvDone
}

// wireName encodes a dotted name in DNS wire format.
func wireName(name string) []byte {
	var out []byte
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if i > start {
				out = append(out, byte(i-start))
				out = append(out, name[start:i]...)
			}
			start = i + 1
		}
	}
	return append(out, 0)
}

// encodeQuestion writes the question section for addr (reversed-quad
// labels under the zone) and returns its length.
func encodeQuestion(dst []byte, zone []byte, addr uint32, kind uint8) int {
	n := 0
	for shift := 0; shift < 32; shift += 8 {
		o := byte(addr >> shift)
		switch {
		case o >= 100:
			dst[n], dst[n+1], dst[n+2], dst[n+3] = 3, '0'+o/100, '0'+o/10%10, '0'+o%10
			n += 4
		case o >= 10:
			dst[n], dst[n+1], dst[n+2] = 2, '0'+o/10, '0'+o%10
			n += 3
		default:
			dst[n], dst[n+1] = 1, '0'+o
			n += 2
		}
	}
	n += copy(dst[n:], zone)
	qtype := byte(1)
	if kind == queryKindTXT {
		qtype = 16
	}
	dst[n], dst[n+1], dst[n+2], dst[n+3] = 0, qtype, 0, 1
	return n + 4
}

// encodeQuery writes a full query packet: header with RD set, then the
// question.
func encodeQuery(dst []byte, zone []byte, id uint16, addr uint32, kind uint8) int {
	dst[0], dst[1] = byte(id>>8), byte(id)
	dst[2], dst[3] = 0x01, 0x00
	dst[4], dst[5], dst[6], dst[7], dst[8], dst[9], dst[10], dst[11] = 0, 1, 0, 0, 0, 0, 0, 0
	return 12 + encodeQuestion(dst[12:], zone, addr, kind)
}

// run drives one phase for dur, addresses from next: an open loop at
// rate queries per second when window is 0, else a closed loop that
// keeps window queries owed a reply, sending at each tick as many as
// replies (or write-offs) have freed, whatever the rate. It returns once
// every query is answered or has timed out, with the latencies
// summarised; their buffer is reused by the next phase.
func (g *generator) run(rate float64, window int, dur time.Duration, next func() uint32) (*phaseStats, error) {
	ph := &phaseStats{}
	ticks := int(dur / genTick)
	ph.lateNs = make([]uint32, 0, ticks)
	if need := int(rate*dur.Seconds()*1.2) + 64; window == 0 && cap(g.latBuf) < need {
		g.latBuf = make([]uint32, 0, need)
	}
	ph.latNs = g.latBuf[:0]
	answered0 := g.answered.Load()
	perTick := rate * genTick.Seconds()

	// Read the clock before arming the timer, so its k-th expiry never
	// lands before tick k on the phase's own clock; otherwise every
	// tick's queries would wait a whole extra tick for the next wake.
	start := time.Now()
	pc, err := newPacer(genTick)
	if err != nil {
		return nil, fmt.Errorf("generator tick timer: %w", err)
	}
	defer pc.Close()
	g.mu.Lock()
	g.ph = ph
	g.mu.Unlock()
	ph.startNs = start.Sub(g.epoch).Nanoseconds()
	span := g.tr.Start("gen.phase", g.trRoot)
	b := 0
	add := func(addr uint32, kind uint8, due int64) {
		g.prepare(b, addr, kind, due)
		if b++; b == genBatch {
			g.flush(ph, b)
			b = 0
		}
	}
	for k := 0; k < ticks; {
		pc.wait()
		wake := time.Now()
		kNow := min(int(wake.Sub(start)/genTick), ticks)
		if kNow <= k {
			continue
		}
		if g.follow != nil {
		drain:
			for {
				select {
				case f := <-g.follow:
					add(f.addr, queryKindTXT, f.due)
					ph.due++
					ph.followUps++
				default:
					break drain
				}
			}
		}
		first := k + 1
		if window > 0 {
			// Closed loop: top the window up; a query is due when
			// the tick that sends it begins.
			dueNs := ph.startNs + int64(kNow)*int64(genTick)
			n := int64(window) - (ph.due - (g.answered.Load() - answered0) - ph.lost)
			for i := int64(0); i < n; i++ {
				add(next(), queryKindA, dueNs)
			}
			ph.due += max(n, 0)
			k = kNow
		}
		for ; k < kNow; k++ {
			dueNs := ph.startNs + int64(k+1)*int64(genTick)
			n := int64(float64(k+1)*perTick) - (ph.due - ph.followUps)
			ph.due += n
			for i := int64(0); i < n; i++ {
				add(next(), queryKindA, dueNs)
			}
		}
		if b > 0 {
			g.flush(ph, b)
			b = 0
		}
		done := time.Now()
		ph.busy += done.Sub(wake)
		for j := first; j <= kNow; j++ {
			ph.lateNs = append(ph.lateNs, uint32(min(done.Sub(start.Add(time.Duration(j)*genTick)), time.Second)))
			if j%50 == 0 {
				ph.backlog = append(ph.backlog, ph.due-(g.answered.Load()-answered0))
			}
		}
	}
	ph.wall = time.Since(start)
	span.End()

	// Drain: wait for the stragglers, then write off the rest.
	deadline := time.Now().Add(replyTimeout)
	for time.Now().Before(deadline) && g.answered.Load()-answered0 < ph.sent {
		time.Sleep(time.Millisecond)
	}
	for i := range g.slots {
		s := &g.slots[i]
		for {
			st := s.state.Load()
			if st == 2 {
				runtime.Gosched()
				continue
			}
			if st == 1 && !s.state.CompareAndSwap(1, 0) {
				continue
			}
			if st == 1 {
				ph.lost++
			}
			break
		}
	}
	g.mu.Lock()
	g.ph = nil
	g.mu.Unlock()
	ph.lat = summarizeNs(ph.latNs)
	g.latBuf, ph.latNs = ph.latNs[:0], nil
	return ph, nil
}

// prepare claims the next DNS ID for a query and encodes it into send
// slot b.
func (g *generator) prepare(b int, addr uint32, kind uint8, dueNs int64) {
	id := uint16(g.nextID)
	g.nextID++
	s := &g.slots[id]
	for {
		st := s.state.Load()
		if st == 2 {
			runtime.Gosched()
			continue
		}
		if s.state.CompareAndSwap(st, 3) {
			if st == 1 {
				// The ID came round while its query was still
				// unanswered: that query is lost.
				g.mu.Lock()
				if g.ph != nil {
					g.ph.lost++
				}
				g.mu.Unlock()
			}
			break
		}
	}
	s.kind, s.addr, s.due = kind, addr, dueNs
	s.gen = g.or.liveGen()
	s.state.Store(1)
	g.send.lens[b] = encodeQuery(g.send.bufs[b], g.zone, id, addr, kind)
}

func (g *generator) flush(ph *phaseStats, n int) {
	m, _ := g.send.Write(n, false)
	ph.sent += int64(m)
}

// receive is the receiver goroutine.
func (g *generator) receive() {
	defer close(g.recvDone)
	for {
		n, err := g.recv.Read()
		if err != nil {
			return
		}
		if n == 0 {
			continue
		}
		now := time.Since(g.epoch).Nanoseconds()
		genRecv := g.or.newestGen()
		g.mu.Lock()
		ph := g.ph
		for i := 0; i < n; i++ {
			g.judge(ph, g.recv.bufs[i][:g.recv.lens[i]], now, genRecv)
		}
		g.mu.Unlock()
	}
}

// judge matches one reply to its query and scores it; g.mu is held.
func (g *generator) judge(ph *phaseStats, pkt []byte, now int64, genRecv uint32) {
	if len(pkt) < 12 {
		if ph != nil {
			ph.unmatched++
		}
		return
	}
	s := &g.slots[uint16(pkt[0])<<8|uint16(pkt[1])]
	if !s.state.CompareAndSwap(1, 2) {
		if ph != nil {
			ph.unmatched++
		}
		return
	}
	qn := encodeQuestion(g.scratch[:], g.zone, s.addr, s.kind)
	v, listed := verdictMismatch, false
	if len(pkt) >= 12+qn && string(pkt[12:12+qn]) == string(g.scratch[:qn]) {
		v, listed = g.or.check(pkt, qn, s.kind, s.addr, s.gen, genRecv)
	}
	if v == verdictMismatch {
		s.state.Store(1)
		if ph != nil {
			ph.unmatched++
		}
		return
	}
	kind, addr, due := s.kind, s.addr, s.due
	s.state.Store(0)
	g.answered.Add(1)
	if ph == nil {
		return
	}
	ph.answered++
	ph.lastReplyNs = now
	switch v {
	case verdictWrong:
		ph.wrong++
	case verdictStale:
		ph.stale++
	}
	ph.latNs = append(ph.latNs, uint32(min(now-due, int64(time.Second))))
	if g.follow != nil && kind == queryKindA && listed {
		select {
		case g.follow <- followUp{addr: addr, due: now}:
		default:
			ph.followDropped++
		}
	}
}
