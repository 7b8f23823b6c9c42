package sim

import (
	"math"
	"testing"
)

// BenchmarkSchedule measures the steady-state cost of scheduling one
// event into a queue of pending events. After the first pool fill the
// free list supplies every event, so allocs/op must report 0.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	const pending = 1024
	for i := 0; i < pending; i++ {
		e.Schedule(float64(i%64), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i%64), nop)
		if e.Pending() > 2*pending {
			e.Run(e.Now()+16, 0)
		}
	}
}

// BenchmarkRunDrain measures the full schedule→pop→fire cycle via a
// self-perpetuating event chain: each firing schedules its successor,
// which is exactly the hot loop of the trade simulator's think/serve
// cycles. Steady state must be allocation-free per event.
func BenchmarkRunDrain(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var tick func()
	tick = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(math.Inf(1), 0)
	if remaining != 0 {
		b.Fatalf("chain stopped with %d events left", remaining)
	}
}

// BenchmarkScheduleCancelDrain exercises the cancellation path: half
// of the scheduled events are cancelled before firing, so the engine
// discards and recycles them without running their actions.
func BenchmarkScheduleCancelDrain(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 512
	for done := 0; done < b.N; done += batch {
		n := batch
		if rest := b.N - done; rest < n {
			n = rest
		}
		for i := 0; i < n; i++ {
			ev := e.Schedule(float64(i%16), nop)
			if i%2 == 0 {
				ev.Cancel()
			}
		}
		e.Run(e.Now()+16, 0)
	}
}

// BenchmarkEngineHold measures per-event cost with a constant
// population of timers resident in the queue. uniform is the classic
// hold model: 65,536 self-rescheduling exp(1) timers. shard is the
// traffic one shard of a 256-pool, 64k-client fleet carries: 32k think
// timers with a 7 s mean, one per idle client, plus the completion
// timers of 256 processor-sharing stations (an application and a
// database CPU for each of 128 pools). Every event cancels and
// re-arms one station's completion at a millisecond horizon, as a
// station does on each arrival and departure. Seconds-scale and
// millisecond-scale timers sharing one queue is the shape a bucketed
// scheduler sized from the overall time spread handles worst. Steady
// state must be allocation-free in both cases.
func BenchmarkEngineHold(b *testing.B) {
	b.Run("uniform", func(b *testing.B) {
		e := NewEngine()
		rng := NewStream(7)
		var fire func()
		fire = func() { e.Schedule(rng.Exp(1), fire) }
		for i := 0; i < 65536; i++ {
			e.Schedule(rng.Float64(), fire)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(math.Inf(1), uint64(b.N))
	})
	b.Run("shard", func(b *testing.B) {
		e := NewEngine()
		rng := NewStream(7)
		const clients, stations = 32768, 256
		var completion [stations]Event
		var complete [stations]func()
		// rearm reschedules station k's completion, the way an arrival
		// or departure changes every job's share of service.
		rearm := func(k int) {
			completion[k].Cancel()
			completion[k] = e.Schedule(rng.Exp(0.005), complete[k])
		}
		for k := range complete {
			complete[k] = func() { rearm(k) }
		}
		var think func()
		think = func() {
			e.Schedule(rng.Exp(7), think)
			rearm(rng.Intn(stations))
		}
		for i := 0; i < clients; i++ {
			e.Schedule(rng.Exp(7), think)
		}
		for k := range complete {
			rearm(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Run(math.Inf(1), uint64(b.N))
	})
}

// BenchmarkShardWindow measures one coordinator synchronisation window
// across shards exchanging cross-shard messages — delivery, window
// execution, barrier, outbox routing. Steady state must be
// allocation-free: message buffers and the delivery sorter are
// retained across windows.
func BenchmarkShardWindow(b *testing.B) {
	const lookahead = 1.0
	c := NewCoordinator(4, lookahead)
	defer c.Close()
	rng := NewStream(11)
	for i, sh := range c.shards {
		sh := sh
		id, peer := uint64(i), (i+1)%len(c.shards)
		r := rng.Split(id)
		var seq uint64
		var tick func()
		tick = func() {
			sh.Eng.Schedule(r.Exp(0.2), tick)
			seq++
			sh.Send(peer, id, seq, lookahead+r.Exp(0.1), func() {})
		}
		sh.Eng.Schedule(r.Float64(), tick)
	}
	until := 0.0
	c.Run(64) // fill event pools, message buffers, outbox slices
	until = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += lookahead
		c.Run(until)
	}
}

// BenchmarkStationSubmit measures one processor-sharing service cycle
// end to end (Submit → completion event → callback), the innermost
// loop of every simulated measurement.
func BenchmarkStationSubmit(b *testing.B) {
	e := NewEngine()
	s := NewStation(e, "cpu", 1, 4, GlobalFIFO)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(0, 0.001, nil)
		e.Run(e.Now()+1, 0)
	}
}
