package api

import "repro/internal/apps"

// RegisterRequest is the body of POST /v1/worker/register, sent by a
// worker daemon to the coordinator when it joins the cluster (and again
// whenever a heartbeat answers 404, e.g. after a coordinator restart).
type RegisterRequest struct {
	// Protocol is the worker's ProtocolVersion; the coordinator rejects
	// registration on mismatch, which is where version negotiation
	// happens — a worker that registered is known compatible.
	Protocol string `json:"protocol"`
	// Addr is the worker's advertised base URL (e.g.
	// "http://10.0.0.7:7071"); the coordinator dials it to dispatch
	// shards.
	Addr string `json:"addr"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity the worker echoes in
	// every heartbeat.
	WorkerID string `json:"worker_id"`
	// Protocol echoes the coordinator's ProtocolVersion.
	Protocol string `json:"protocol"`
	// HeartbeatMS is the interval at which the coordinator expects
	// heartbeats; missing several marks the worker dead.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest is the body of POST /v1/worker/heartbeat. An unknown
// WorkerID answers 404, telling the worker to re-register.
type HeartbeatRequest struct {
	// WorkerID is the identity assigned at registration.
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// OK is always true on a 200 response.
	OK bool `json:"ok"`
}

// ShardRequest is the body of POST /v1/shard, sent by the coordinator to
// a worker: one contiguous slice of a sweep's design, fully merged
// configurations included. The worker streams one NDJSON ShardLine per
// configuration, in design order.
type ShardRequest struct {
	// Protocol re-asserts the negotiated wire version on every dispatch.
	Protocol string `json:"protocol"`
	// App names the application; the worker resolves it from its own
	// registry and must arrive at the same spec content.
	App string `json:"app"`
	// SpecDigest is the coordinator's content address for the app's
	// spec. The worker verifies its locally-prepared digest against it —
	// a mismatch fails the shard rather than merging results computed
	// from a different program.
	SpecDigest string `json:"spec_digest"`
	// Start is the absolute design index of Configs[0]; line indices are
	// absolute so the coordinator merges without offset bookkeeping.
	Start int `json:"start"`
	// Configs are the fully-merged configurations of this shard, in
	// design order.
	Configs []apps.Config `json:"configs"`
	// CensusParams selects each result's census column; omitted, the
	// lines carry no result projection, only the modeling observations.
	CensusParams []string `json:"census_params,omitempty"`
}

// ShardLine is one NDJSON record of a shard response: the analysis of a
// single design point, plus the distilled modeling observations
// (per-function tainted loop iterations and the instruction count) so
// the coordinator can feed a model-extraction pipeline without shipping
// whole reports.
type ShardLine struct {
	// Index is the absolute design index of this record.
	Index int `json:"index"`
	// Result is the wire projection of the analysis, identical to what a
	// single-node sweep would stream for this configuration.
	Result *AnalysisResult `json:"result,omitempty"`
	// Iterations sums the tainted run's loop iterations per function —
	// the MetricIterations observation of a model extraction.
	Iterations map[string]int64 `json:"iterations,omitempty"`
	// Instructions is the dynamic cost of the tainted run.
	Instructions int64 `json:"instructions,omitempty"`
	// Error carries a per-configuration analysis failure; the shard
	// itself still completes.
	Error string `json:"error,omitempty"`
}

// WorkerStats is the coordinator's wire view of one registered worker.
type WorkerStats struct {
	// ID is the coordinator-assigned worker identity.
	ID string `json:"id"`
	// Addr is the worker's advertised base URL.
	Addr string `json:"addr"`
	// Live reports whether the worker is currently dispatchable
	// (heartbeating and not failed).
	Live bool `json:"live"`
	// Shards counts shards this worker completed successfully.
	Shards uint64 `json:"shards"`
	// InFlight counts shards currently dispatched to this worker.
	InFlight int `json:"in_flight"`
	// LastHeartbeatMS is the age of the last heartbeat in milliseconds.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
}

// ClusterStats reports the distributed-execution state in /v1/stats.
type ClusterStats struct {
	// Role is "coordinator" or "worker".
	Role string `json:"role"`
	// Workers lists the coordinator's registered workers (coordinator
	// role only), sorted by ID.
	Workers []WorkerStats `json:"workers,omitempty"`
	// LiveWorkers counts currently dispatchable workers.
	LiveWorkers int `json:"live_workers"`
	// ShardsDispatched counts shards completed on remote workers.
	ShardsDispatched uint64 `json:"shards_dispatched"`
	// ShardsLocal counts shards the coordinator fell back to executing
	// locally (no live workers, or retries exhausted).
	ShardsLocal uint64 `json:"shards_local"`
	// ShardRetries counts shard dispatches that failed and were retried.
	ShardRetries uint64 `json:"shard_retries"`
	// HeartbeatMisses counts live→dead transitions caused by heartbeat
	// timeouts.
	HeartbeatMisses uint64 `json:"heartbeat_misses"`
}
