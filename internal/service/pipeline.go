package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/modelreg"
)

// design is a validated request reduced to what executing it needs: one
// prepared spec and the configurations to analyze it at, in design order.
type design struct {
	app, digest string
	prepared    *core.Prepared
	cfgs        []apps.Config
	// censusParams selects the census column of each point's result
	// projection; nil asks for none (a model extraction consumes only the
	// distilled observations, and the projection is the costly half).
	censusParams []string
}

// shardLine projects one analysis outcome into the daemon's only
// representation of a measured design point. Every execution site — the
// local pool, a worker's /v1/shard handler, the coordinator's fallback —
// produces it here, so a stream cannot depend on where a point ran.
func shardLine(d design, index int, rep *core.Report, err error) api.ShardLine {
	line := api.ShardLine{Index: index}
	if err != nil {
		line.Error = err.Error()
		return line
	}
	if d.censusParams != nil {
		line.Result = api.NewAnalysisResult(d.app, d.digest, rep, d.censusParams)
	}
	line.Iterations = modelreg.SumLoopIterations(rep)
	line.Instructions = rep.Instructions
	return line
}

// runPoints is the local point source: d executes on this daemon's pool
// and every outcome reaches emit in design order, indexed from 0 within
// d.cfgs. coordinator.runSharded is the other source, with the same
// contract.
func (s *Server) runPoints(ctx context.Context, d design, emit func(api.ShardLine) error) error {
	return s.sched.runOrdered(ctx, d.prepared, d.cfgs, func(i int, rep *core.Report, err error) error {
		return emit(shardLine(d, i, rep, err))
	})
}

// pointSink is what differs between the consumers of a design-point
// stream: the shape of the journal records and where a durable record
// is delivered.
type pointSink interface {
	// kind is the journal namespace, journal.KindSweep or KindModel.
	kind() string
	// accept builds the acceptance record of a fresh n-point job.
	accept(key string, n int) journal.Record
	// begin is called once, when acc is the job's durable acceptance:
	// just journaled, or recovered from an earlier process.
	begin(acc journal.Record)
	// durable selects the sink's point records from a recovered journal.
	durable(jj *journal.Job) []journal.Record
	// record builds the journal record of a live point (line.Index is
	// absolute). An error refuses the point and ends the stream.
	record(line api.ShardLine) (journal.Record, error)
	// deliver hands one durable record to the consumer; replayed and
	// live points both arrive through it.
	deliver(rec journal.Record) error
}

// journalError marks a stream the journal stopped: it could not be
// acquired, or it refused a record. Nothing past the durable prefix was
// delivered.
type journalError struct{ err error }

func (e *journalError) Error() string { return "journal: " + e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// streamPoints is the one path a design takes through the daemon:
// acquire its journal, accept it or resume the acceptance an earlier
// process journaled, replay the durable prefix, run the remaining tail
// (on the pool, or sharded across the cluster when this daemon
// coordinates live workers), and for every live point append its record
// and only then deliver it — from the record just journaled, through the
// same sink.deliver replay uses. A point therefore reaches a consumer
// only after it is durable (journal ⊇ consumed), and replay-then-live
// delivers what an uninterrupted run would have. With no journal every
// journal call is a no-op on a nil job.
//
// What is journaled: acceptance, one record per point that ran (results
// and genuine analysis failures alike), the terminal record. What is
// not: a point that never ran because ctx died — the sources end the
// stream with the context's error instead of emitting it — and in-band
// control lines.
func (s *Server) streamPoints(ctx context.Context, key string, d design, sink pointSink) error {
	jj, err := s.journal.Acquire(ctx, sink.kind(), key)
	if err != nil {
		return &journalError{err}
	}
	defer jj.Release()

	n := len(d.cfgs)
	acc, resumed := jj.Accept()
	if resumed && acc.N != n {
		// Same key, different shape: a journal this request cannot
		// explain is not resumed; run unjournaled rather than guess.
		jj.Release()
		jj, resumed = nil, false
	}
	if !resumed {
		acc = sink.accept(key, n)
		if err := jj.Append(acc); err != nil {
			return &journalError{err}
		}
	}
	sink.begin(acc)

	replay := sink.durable(jj)
	for _, rec := range replay {
		if err := sink.deliver(rec); err != nil {
			return err
		}
	}
	if done := len(replay); done < n {
		source := s.runPoints
		if s.coord != nil && s.coord.hasLive() {
			source = s.coord.runSharded
		}
		tail := d
		tail.cfgs = d.cfgs[done:]
		err := source(ctx, tail, func(line api.ShardLine) error {
			line.Index += done
			rec, err := sink.record(line)
			if err != nil {
				return err
			}
			if err := jj.Append(rec); err != nil {
				return &journalError{err}
			}
			return sink.deliver(rec)
		})
		if err != nil {
			return err
		}
	}
	// The job is complete only once its terminal record is durable (and
	// the journal compacted): on failure every point is journaled, so the
	// resubmission is pure replay.
	if err := jj.Done(); err != nil {
		return &journalError{err}
	}
	return nil
}

// sweepSink streams /v1/sweep: point records hold the exact NDJSON
// api.SweepLine bytes, so what replay writes is what the first run wrote.
type sweepSink struct {
	s    *Server
	d    design
	w    http.ResponseWriter
	rc   *http.ResponseController
	last int64 // the client's Last-Seq: lines up to it are not re-sent

	firstID uint64 // the numeric job ID labelling design point 0
	begun   bool   // the acceptance is durable and the 200 header is out
	next    int    // index of the first point not yet delivered
}

func (k *sweepSink) kind() string { return journal.KindSweep }

// accept reserves the sweep's job-ID block and pins it in the record, so
// a restarted daemon labels resumed points as the first process would.
func (k *sweepSink) accept(key string, n int) journal.Record {
	return journal.Record{Type: journal.TypeAccept, Kind: journal.KindSweep, Key: key,
		App: k.d.app, SpecDigest: k.d.digest, N: n, FirstJobID: k.s.sched.reserveJobBlock(n)}
}

func (k *sweepSink) begin(acc journal.Record) {
	k.firstID = acc.FirstJobID
	k.s.sched.ensureJobCounter(acc.FirstJobID + uint64(acc.N) - 1)
	k.begun = true
	k.w.Header().Set("Content-Type", "application/x-ndjson")
	k.w.WriteHeader(http.StatusOK)
}

func (k *sweepSink) durable(jj *journal.Job) []journal.Record { return jj.Points() }

func (k *sweepSink) record(line api.ShardLine) (journal.Record, error) {
	raw, err := json.Marshal(&api.SweepLine{Seq: int64(line.Index + 1), Index: line.Index,
		JobID: jobID(k.firstID + uint64(line.Index)), Config: k.d.cfgs[line.Index],
		Result: line.Result, Error: line.Error})
	return journal.Record{Type: journal.TypePoint, Index: line.Index, Line: raw}, err
}

func (k *sweepSink) deliver(rec journal.Record) error {
	k.next = rec.Index + 1
	if int64(k.next) <= k.last {
		return nil
	}
	return k.write(rec.Line)
}

func (k *sweepSink) write(raw []byte) error {
	_, err := fmt.Fprintf(k.w, "%s\n", raw)
	_ = k.rc.Flush()
	return err
}

// control writes an in-band control line: a well-formed jobless error
// record (seq 0, never journaled) that lets the client tell "the server
// stopped this stream" from a truncated one.
func (k *sweepSink) control(index int, msg string) {
	raw, _ := json.Marshal(&api.SweepLine{Index: index, Error: msg})
	_ = k.write(raw)
}

// modelSink feeds /v1/models: sample records hold the distilled
// observation, re-fed at its absolute design index — the synthetic
// measurement noise is seeded per index, so a replayed sample fits
// exactly as the live one did.
type modelSink struct {
	cfgs    []apps.Config
	consume func(modelreg.Sample) error
}

func (k *modelSink) kind() string { return journal.KindModel }

func (k *modelSink) accept(key string, n int) journal.Record {
	return journal.Record{Type: journal.TypeAccept, Kind: journal.KindModel, Key: key, N: n}
}

func (k *modelSink) begin(journal.Record) {}

func (k *modelSink) durable(jj *journal.Job) []journal.Record { return jj.Samples() }

// record refuses a failed point: a missing design point would silently
// skew every model the sweep was meant to produce.
func (k *modelSink) record(line api.ShardLine) (journal.Record, error) {
	if line.Error != "" {
		return journal.Record{}, fmt.Errorf("modelreg: design point %d (%v): %s", line.Index, k.cfgs[line.Index], line.Error)
	}
	return journal.Record{Type: journal.TypeSample, Index: line.Index,
		Iterations: line.Iterations, Instructions: line.Instructions}, nil
}

func (k *modelSink) deliver(rec journal.Record) error {
	return k.consume(modelreg.Sample{Index: rec.Index, Config: k.cfgs[rec.Index],
		Iterations: rec.Iterations, Instructions: rec.Instructions})
}
