package trace

// The span vocabulary: every subsystem, operation, and attribute key the
// instrumentation sites emit, as named constants. Analysis layers
// (internal/traceviz, the Chrome export reader, the slow-query log) key off
// these strings, so they are a wire format: renaming one is a breaking
// change to every previously captured trace collection. Instrumentation
// sites use the constants — never string literals — so the compiler keeps
// producers and consumers in sync.
//
// The span tree of one query has this shape (ops in parentheses are
// optional, depending on the query's execution path):
//
//	server/query                      root; one per query
//	├── sched/wait                    time in the priority queue
//	├── (server/batch)                batch-mode parent aggregate, leader only
//	│   └── (server/compute)          seed computation; pagespace nests below
//	├── (server/fanout)               batch-mode projection from the seed
//	├── datastore/lookup              candidate search (per retry round)
//	├── (server/project)              cached-result projection
//	├── (server/block)                stall on an EXECUTING producer
//	├── (server/compute)              raw-data computation
//	│   └── pagespace/read|readbatch  page cache access
//	│       └── disk/read             spindle service (queueing + transfer)
//	└── (datastore/store)             result insertion
const (
	// SubServer is the query server engine (root spans and execution phases).
	SubServer = "server"
	// SubSched is the scheduling graph (queue wait).
	SubSched = "sched"
	// SubDatastore is the semantic result cache.
	SubDatastore = "datastore"
	// SubPagespace is the raw-data page cache.
	SubPagespace = "pagespace"
	// SubDisk is the modelled disk farm.
	SubDisk = "disk"
)

// Operations within each subsystem.
const (
	// OpQuery is the per-query root span (SubServer, Parent == 0).
	OpQuery = "query"
	// OpWait is time spent in the waiting heap (SubSched).
	OpWait = "wait"
	// OpLookup is a data store candidate search (SubDatastore).
	OpLookup = "lookup"
	// OpProject is projection of cached results into the output (SubServer).
	OpProject = "project"
	// OpBlock is a stall on an overlapping EXECUTING producer (SubServer).
	OpBlock = "block"
	// OpCompute is raw-data computation of the uncovered remainder
	// (SubServer); page space and disk spans nest under it.
	OpCompute = "compute"
	// OpStore is insertion of the finished result into the data store
	// (SubDatastore).
	OpStore = "store"
	// OpRead is a single page access (SubPagespace) or one spindle request
	// (SubDisk).
	OpRead = "read"
	// OpReadBatch is a multi-page page space access (SubPagespace).
	OpReadBatch = "readbatch"
	// OpBatch is the batch executor computing a group's shared parent
	// aggregate, recorded under the group leader's root (SubServer).
	OpBatch = "batch"
	// OpFanout is the batch executor projecting the freshly computed parent
	// into one group member's output (SubServer).
	OpFanout = "fanout"
)

// Attribute keys.
const (
	// AttrStrategy is the active ranking strategy name (server/query).
	AttrStrategy = "strategy"
	// AttrQuery is the query predicate rendering (server/query).
	AttrQuery = "query"
	// AttrThread is the query-thread index that executed the query
	// (server/query; attached when execution starts, so queries exported
	// mid-wait do not carry it).
	AttrThread = "thread"
	// AttrOutcome discriminates span endings: "canceled" on server/query and
	// sched/wait; "hit", "coalesced", "miss", "miss-dup" on pagespace/read.
	AttrOutcome = "outcome"
	// AttrReusedFrac is the fraction of output area covered by projection
	// (server/query).
	AttrReusedFrac = "reused_frac"
	// AttrInputBytes counts raw bytes read (server/query, server/compute).
	AttrInputBytes = "input_bytes"
	// AttrBlocks counts producer stalls (server/query).
	AttrBlocks = "blocks"
	// AttrCached reports data store insertion success (server/query,
	// datastore/store).
	AttrCached = "cached"
	// AttrRank is the node's rank when dequeued (sched/wait).
	AttrRank = "rank"
	// AttrQueueDepth is the waiting-heap size left behind at dequeue
	// (sched/wait).
	AttrQueueDepth = "queue_depth"
	// AttrCandidates counts overlap candidates (datastore/lookup,
	// server/project).
	AttrCandidates = "candidates"
	// AttrProjections counts candidates actually projected (server/project).
	AttrProjections = "projections"
	// AttrAreaGained is the output area covered by projection
	// (server/project).
	AttrAreaGained = "area_gained"
	// AttrSubqueries counts uncovered sub-regions computed from raw data
	// (server/compute).
	AttrSubqueries = "subqueries"
	// AttrProducer is the producer query ID blocked on (server/block).
	AttrProducer = "producer"
	// AttrBytes is the payload size of the operation (datastore/store,
	// pagespace/read, disk/read).
	AttrBytes = "bytes"
	// AttrDataset is the dataset name (pagespace/read, pagespace/readbatch).
	AttrDataset = "dataset"
	// AttrPage is the page index (pagespace/read).
	AttrPage = "page"
	// AttrPages counts requested pages (pagespace/readbatch).
	AttrPages = "pages"
	// AttrHits / AttrMisses / AttrCoalesced split a batch by cache outcome
	// (pagespace/readbatch).
	AttrHits      = "hits"
	AttrMisses    = "misses"
	AttrCoalesced = "coalesced"
	// AttrCandidateBytes is the total size of lookup candidates and
	// AttrBestOverlap the best overlap index among them (datastore/lookup).
	AttrCandidateBytes = "candidate_bytes"
	AttrBestOverlap    = "best_overlap"
	// AttrSpindle is the disk the request was served by (disk/read).
	AttrSpindle = "spindle"
	// AttrSequential reports whether the transfer avoided a long seek
	// (disk/read).
	AttrSequential = "sequential"
	// AttrStreams counts query streams recently interleaved on the spindle
	// (disk/read).
	AttrStreams = "streams"
	// AttrQDepth is the spindle queue depth at enqueue (disk/read, elevator
	// only).
	AttrQDepth = "qdepth"
	// AttrBatch is the number of distinct pages merged into the transfer
	// that served the request (disk/read, elevator only).
	AttrBatch = "batch"
	// AttrReorder is how far the request moved from arrival order
	// (disk/read, elevator only).
	AttrReorder = "reorder"
	// AttrAdmitted reports whether the data store accepted the result —
	// false covers both size/pin rejection and, under the cost policy,
	// admission control (datastore/store).
	AttrAdmitted = "admitted"
	// AttrGroupSize is the number of queries claimed together by the batch
	// executor (server/batch).
	AttrGroupSize = "group_size"
)
