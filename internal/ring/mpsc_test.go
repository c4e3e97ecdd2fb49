package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressCaps are small enough that every run wraps the ring many times
// and keeps it full most of the time.
var stressCaps = []int{2, 4, 8}

// TestMPSCBurstStress drives an MPSC ring with four producers that mix
// Enqueue and EnqueueBatch (batches up to twice the capacity) against
// one consumer that mixes Dequeue and DequeueBatch. Every item must be
// delivered exactly once, each producer's items in its program order,
// and Len may never report more than Cap items.
func TestMPSCBurstStress(t *testing.T) {
	for _, c := range stressCaps {
		t.Run(fmt.Sprintf("cap%d", c), func(t *testing.T) { mpscStress(t, c) })
	}
}

func mpscStress(t *testing.T, c int) {
	const producers, per = 4, 5000
	q := MustMPSC[uint64](c)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			vs := make([]uint64, 2*c)
			for i := 0; i < per && !stop.Load(); {
				if rng.Intn(2) == 0 {
					if q.Enqueue(uint64(p)<<32 | uint64(i)) {
						i++
					} else {
						runtime.Gosched()
					}
					continue
				}
				m := 1 + rng.Intn(2*c)
				if m > per-i {
					m = per - i
				}
				for k := range vs[:m] {
					vs[k] = uint64(p)<<32 | uint64(i+k)
				}
				k := q.EnqueueBatch(vs[:m])
				if k < 0 || k > m {
					panic(fmt.Sprintf("EnqueueBatch of %d returned %d", m, k))
				}
				i += k
				if k < m {
					runtime.Gosched()
				}
			}
		}(p)
	}

	rng := rand.New(rand.NewSource(99))
	next := make([]uint32, producers)
	buf := make([]uint64, 2*c)
	for got := 0; got < producers*per; {
		if l := q.Len(); l > c {
			t.Fatalf("Len = %d over capacity %d", l, c)
		}
		n := 0
		if rng.Intn(2) == 0 {
			if v, ok := q.Dequeue(); ok {
				buf[0], n = v, 1
			}
		} else {
			n = q.DequeueBatch(buf[:1+rng.Intn(2*c)])
		}
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range buf[:n] {
			p, i := v>>32, uint32(v)
			if p >= producers {
				t.Fatalf("item %#x from no producer", v)
			}
			if i != next[p] {
				t.Fatalf("producer %d: got item %d, want %d (lost, duplicated or reordered)", p, i, next[p])
			}
			next[p]++
		}
		got += n
	}
	if v, ok := q.Dequeue(); ok {
		t.Fatalf("extra item %#x after every item was delivered", v)
	}
	if l := q.Len(); l != 0 {
		t.Fatalf("Len = %d on a drained ring", l)
	}
}

// TestMPSCConcurrentFillHoldsCap races four producers into a ring no one
// drains: together they offer far more than it holds, and exactly Cap
// items must be accepted — a producer that reserved past the consumer
// would overwrite an undelivered slot.
func TestMPSCConcurrentFillHoldsCap(t *testing.T) {
	const producers = 4
	for _, c := range stressCaps {
		q := MustMPSC[uint64](c)
		out := make([]uint64, 2*c)
		for round := 0; round < 100; round++ {
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					vs := make([]uint64, 2*c)
					for try := 0; try < 2*c; try++ {
						if try%2 == 0 {
							if q.Enqueue(uint64(p)) {
								accepted.Add(1)
							}
							continue
						}
						accepted.Add(int64(q.EnqueueBatch(vs[:1+(p+try)%(2*c)])))
					}
				}(p)
			}
			wg.Wait()
			if a := accepted.Load(); a != int64(c) {
				t.Fatalf("cap %d round %d: %d items accepted into an undrained ring", c, round, a)
			}
			if n := q.DequeueBatch(out); n != c {
				t.Fatalf("cap %d round %d: drained %d items, want %d", c, round, n, c)
			}
		}
	}
}

// TestMPSCModel checks every operation's result against a slice model
// over a long random sequence: full and empty are reported exactly when
// the model is full or empty, batches stop at the free space, and an
// injected FaultHook fails a batch at the item it fires on (consulted
// at most once per item offered).
func TestMPSCModel(t *testing.T) {
	for _, c := range stressCaps {
		q := MustMPSC[int](c)
		rng := rand.New(rand.NewSource(int64(c)))
		fireAt, consulted := -1, 0
		q.FaultHook = func() bool {
			consulted++
			return consulted-1 == fireAt
		}
		var model []int
		next := 0
		vs := make([]int, 2*c)
		for op := 0; op < 20000; op++ {
			fireAt, consulted = -1, 0
			switch rng.Intn(4) {
			case 0:
				if rng.Intn(4) == 0 {
					fireAt = 0
				}
				want := fireAt < 0 && len(model) < c
				if ok := q.Enqueue(next); ok != want {
					t.Fatalf("cap %d op %d: Enqueue = %v with %d queued, fault %v", c, op, ok, len(model), fireAt == 0)
				}
				if want {
					model = append(model, next)
					next++
				}
			case 1:
				m := rng.Intn(2*c + 1)
				if m > 0 && rng.Intn(3) == 0 {
					fireAt = rng.Intn(m)
				}
				for k := range vs[:m] {
					vs[k] = next + k
				}
				want := min(m, c-len(model))
				if fireAt >= 0 {
					want = min(want, fireAt)
				}
				if k := q.EnqueueBatch(vs[:m]); k != want {
					t.Fatalf("cap %d op %d: EnqueueBatch(%d) = %d with %d queued, fault at %d; want %d", c, op, m, k, len(model), fireAt, want)
				}
				if consulted > m {
					t.Fatalf("cap %d op %d: FaultHook consulted %d times for %d items", c, op, consulted, m)
				}
				model = append(model, vs[:want]...)
				next += want
			case 2:
				v, ok := q.Dequeue()
				if ok != (len(model) > 0) || ok && v != model[0] {
					t.Fatalf("cap %d op %d: Dequeue = %d,%v; model %v", c, op, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			case 3:
				out := vs[:rng.Intn(2*c+1)]
				n := q.DequeueBatch(out)
				want := min(len(out), len(model))
				if n != want {
					t.Fatalf("cap %d op %d: DequeueBatch(%d) = %d; model %v", c, op, len(out), n, model)
				}
				for k, v := range out[:n] {
					if v != model[k] {
						t.Fatalf("cap %d op %d: DequeueBatch[%d] = %d, want %d", c, op, k, v, model[k])
					}
				}
				model = model[n:]
			}
			if q.Len() != len(model) {
				t.Fatalf("cap %d op %d: Len = %d, model holds %d", c, op, q.Len(), len(model))
			}
		}
	}
}

// TestMPSCReleasesReferences: a dequeued slot must not keep its value
// alive for the garbage collector.
func TestMPSCReleasesReferences(t *testing.T) {
	q := MustMPSC[*int](4)
	q.EnqueueBatch([]*int{new(int), new(int)})
	q.Dequeue()
	q.DequeueBatch(make([]*int, 4))
	for i := range q.buf {
		if q.buf[i].v != nil {
			t.Fatalf("slot %d still references a dequeued value", i)
		}
	}
}

// TestMPSCBatchZeroAlloc: the burst operations move items without
// allocating.
func TestMPSCBatchZeroAlloc(t *testing.T) {
	q := MustMPSC[*int](64)
	x := new(int)
	in := make([]*int, 32)
	for i := range in {
		in[i] = x
	}
	out := make([]*int, 32)
	allocs := testing.AllocsPerRun(1000, func() {
		q.EnqueueBatch(in)
		q.Enqueue(x)
		q.DequeueBatch(out)
		q.Dequeue()
	})
	if allocs != 0 {
		t.Fatalf("MPSC burst round trip allocates %.2f times", allocs)
	}
}

func BenchmarkMPSCBatch32(b *testing.B) {
	q := MustMPSC[int](1024)
	in := make([]int, 32)
	out := make([]int, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.EnqueueBatch(in)
		q.DequeueBatch(out)
	}
}
