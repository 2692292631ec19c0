package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Live query subscriptions: a registered query re-executes after each
// applied ingest batch and re-emits its full open-world Result, riding
// the batched-ingestion contract (one epoch bump — and here one
// notification — per applied batch, see ingest.go applyChunks). Each
// re-execution goes through the ordinary Execute path, so it serves from
// the partial cache: a shard the batch did not touch is a cache hit, and
// one it did is caught up from its stale partial (delta.go) — a predicate
// pass over the rows the batch added — so a batch costs the merge and
// estimators, not a table scan. Emissions
// are therefore bitwise-identical to what a fresh cold query at the same
// epochs would return — a subscription is a cadence, not a different
// computation.
//
// Delivery is latest-wins with a one-result buffer: a subscriber that
// falls behind observes the newest result and misses intermediate ones;
// ingestion and the subscription's re-query loop never block on a slow
// consumer.

// Subscription is a live query registered with DB.Subscribe. Results
// arrive on Updates; Close unregisters the query and closes the channel.
type Subscription struct {
	db *DB
	t  *Table
	q  *sqlparse.Query

	// notify is the table's commit signal, capacity 1: notifications
	// coalesce while a re-query is in flight (the in-flight run or the
	// already-pending token covers every batch it absorbs, because Execute
	// captures the epoch vector at run time).
	notify chan struct{}
	// updates carries emissions to the subscriber, capacity 1,
	// latest-wins.
	updates chan *Result

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	err       atomic.Pointer[error]
	emitted   atomic.Uint64
}

// Subscribe registers sql as a live query: the returned Subscription
// re-executes it after every applied ingest batch on the queried table
// (and once immediately, as a baseline) and delivers each Result on
// Updates. Only aggregate queries Execute accepts are subscribable.
// Callers must Close the subscription to release its goroutine.
func (db *DB) Subscribe(sql string) (*Subscription, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, wrapParse(err)
	}
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownTable, q.Table)
	}
	s := &Subscription{
		db:      db,
		t:       t,
		q:       q,
		notify:  make(chan struct{}, 1),
		updates: make(chan *Result, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Preload one token: the loop emits a baseline result without waiting
	// for the first batch.
	s.notify <- struct{}{}
	t.addCommitListener(s.notify)
	go s.loop()
	return s, nil
}

// Updates returns the emission channel. It delivers the newest Result
// after each applied batch (latest-wins; see the package comment on
// backpressure) and is closed by Close.
func (s *Subscription) Updates() <-chan *Result { return s.updates }

// Query returns the canonical form of the subscribed query.
func (s *Subscription) Query() string { return s.q.String() }

// Emitted returns how many results the subscription has produced
// (including ones a lagging consumer never received).
func (s *Subscription) Emitted() uint64 { return s.emitted.Load() }

// Err returns the most recent re-execution error, if any. A failed
// re-execution does not stop the subscription: the query is retried on
// the next batch (transient conditions — say a dropped table — surface
// here rather than killing the loop).
func (s *Subscription) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close unregisters the subscription, stops its goroutine — after a
// final re-estimate if a notification is pending, so no applied batch
// goes unobserved — and closes Updates. Safe to call more than once.
func (s *Subscription) Close() error {
	s.closeOnce.Do(func() {
		s.t.removeCommitListener(s.notify)
		close(s.stop)
		<-s.done
		close(s.updates)
	})
	return s.Err()
}

// loop is the subscription's re-query goroutine: one Execute per
// coalesced notification, each emission delivered latest-wins. On stop
// it drains one pending notification before exiting, so a batch that
// landed just before Close is still covered by a final emission — every
// applied batch is observed by some emission, even when the stream
// outruns the re-query loop entirely (Close is called after the
// listener is unregistered, so the pending token is the last one).
func (s *Subscription) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			select {
			case <-s.notify:
				s.runOnce()
			default:
			}
			return
		case <-s.notify:
			s.runOnce()
		}
	}
}

// runOnce re-executes the subscribed query and delivers the result.
func (s *Subscription) runOnce() {
	res, err := s.db.Execute(s.q)
	if err != nil {
		s.err.Store(&err)
		return
	}
	s.emitted.Add(1)
	s.deliver(res)
}

// deliver publishes one result with latest-wins semantics: when the
// buffer already holds an unconsumed result, that stale result is
// discarded in favor of the new one. With a single producer (the loop)
// and a capacity-1 buffer this terminates in at most two rounds, so
// delivery never blocks on a slow or absent consumer.
func (s *Subscription) deliver(res *Result) {
	for {
		select {
		case s.updates <- res:
			return
		default:
		}
		// Buffer full: drop the stale emission and retry.
		select {
		case <-s.updates:
		default:
		}
	}
}

// addCommitListener registers a channel that notifyCommit pings after
// each applied ingest batch.
func (t *Table) addCommitListener(ch chan<- struct{}) {
	t.subMu.Lock()
	t.subListeners = append(t.subListeners, ch)
	t.subActive.Store(true)
	t.subMu.Unlock()
}

// removeCommitListener unregisters a channel added by addCommitListener.
func (t *Table) removeCommitListener(ch chan<- struct{}) {
	t.subMu.Lock()
	for i, c := range t.subListeners {
		if c == ch {
			last := len(t.subListeners) - 1
			t.subListeners[i] = t.subListeners[last]
			t.subListeners[last] = nil
			t.subListeners = t.subListeners[:last]
			break
		}
	}
	t.subActive.Store(len(t.subListeners) > 0)
	t.subMu.Unlock()
}

// notifyCommit pings every registered listener after an applied batch.
// Sends are non-blocking: each listener channel has capacity 1, and a
// pending token already guarantees a future re-query that will observe
// this batch's epochs. Called without any shard lock held (see
// applyChunks); the no-subscriber case is one atomic load.
func (t *Table) notifyCommit() {
	if !t.subActive.Load() {
		return
	}
	t.subMu.Lock()
	for _, ch := range t.subListeners {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	t.subMu.Unlock()
}
