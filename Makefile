GO ?= go

# chaos seed sweep offset; override with e.g. `make chaos CHAOS_SEED=20260806`.
CHAOS_SEED ?= 1

.PHONY: build test lint check race chaos elastic overlap kernels trace-demo serve-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: go vet plus embracevet, the repo's five analyzers (tag discipline,
## determinism, lock-over-send, slice aliasing contracts, hot-path
## allocations). Arena lifetimes and collective-schedule divergence are
## caught at test time instead (poisoned recycled buffers, a default receive
## deadline). See DESIGN.md § Static analysis; `-json` emits the
## machine-readable stream. Last, the wire stays free of reflection: no
## non-test file of internal/comm or internal/collective may import
## encoding/gob or reflect (DESIGN.md § The TCP wire); and the sparse wire
## codecs stay out of every product path: no package but ./benchmark may
## import internal/compress (DESIGN.md §12).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/embracevet ./...
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/comm ./internal/collective | grep -Ex 'encoding/gob|reflect'; then \
		echo "lint: internal/comm or internal/collective imports encoding/gob or reflect" >&2; exit 1; fi
	@if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -v '^embrace/benchmark:' | grep -E ' embrace/internal/compress( |$$)'; then \
		echo "lint: only ./benchmark may import embrace/internal/compress" >&2; exit 1; fi

## check: lint the whole module and race-test everything (the Communicator's
## pooled buffers and pipelined ring segments are the code most exposed to
## data races, but the trainer and scheduler fan out goroutines too).
check: lint overlap kernels
	$(GO) test -race ./...

race: check

## chaos: the deterministic fault-injection suite (DESIGN.md §8) under the
## race detector — every collective and an end-to-end training job must be
## bit-identical to the fault-free run while the chaos transport delays,
## duplicates, reorders and drops their messages. CHAOS_SEED offsets the
## seed sweep so CI shards cover disjoint fault schedules.
chaos:
	EMBRACE_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -timeout 5m -count=1 \
		-run 'Chaos|Maskable|Crash|Fault' \
		./internal/comm ./internal/collective ./internal/trainer

## elastic: the crash-shrink-rejoin suite (DESIGN.md §13) under the race
## detector — the elastic supervisor must stitch a bit-identical trajectory
## through rank crash, world shrink, and full-size rejoin — followed by a
## CLI demo run whose per-epoch recovery-latency report lands in
## ELASTIC_recovery.json for CI to archive. CHAOS_SEED offsets the seeds.
elastic:
	EMBRACE_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -timeout 10m -count=1 \
		-run 'Elastic|Salvage|FaultAttribution|FaultErrors|Readmit|Leave|Epoch|ColumnShard|Remap' \
		./internal/comm ./internal/collective ./internal/trainer \
		./internal/partition ./internal/checkpoint
	$(GO) run ./cmd/embrace-train -elastic -workers 4 -dim 12 -steps 9 \
		-ckpt-every 3 -rejoin -rejoin-after 2 -crash-rank 3 -crash-step 4 \
		-chaos-seed $(CHAOS_SEED) -adam=false -elastic-report ELASTIC_recovery.json

## overlap: what the concurrent hybrid step rests on, under the race detector
## — the fused ring pass is bit-identical to per-block AllReduce (clean, under
## maskable chaos, over TCP), the ring-sharded optimizer to a replicated one,
## Algorithm 1's delayed rows never meet the next batch, late harvest and the
## late dense join train bit-identically to their early forms, plus the
## strategies/trainer chaos-equivalence suites that run the three goroutines
## of a step against a fault-injecting fabric. CHAOS_SEED offsets the seeds.
overlap:
	EMBRACE_CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -timeout 10m -count=1 \
		-run 'AllReduceBlocks|DenseShards|DelayedRowsDisjoint|LateHarvest|LateDenseJoin|ChaosTrainingEquivalence|UnderChaos|MaskableChaos|CrossStrategyEquivalence|EmbRace2DEqualsWholeUpdate|TraceChromeExportGolden|TraceDelayedOverlaps' \
		./internal/collective ./internal/strategies ./internal/trainer

## kernels: what the register-blocked trunk kernels and the optimizer loops
## rest on, under the race detector — each against its pre-change loop, kept
## in the tests as the oracle, to the float32 bit (DESIGN.md § Trunk kernels),
## the range-bound Adam and SGD of the ring-sharded optimizer included
## (TestAdamRange*, matched by Adam) — then the two trunk benchmarks at the
## train_dense shape, which also report the live-unit share the zero-skips
## feed on.
kernels:
	$(GO) test -race -count=1 -run 'Kernel|Gradients|Infer|Adam|Adagrad|PoolBackward' \
		./internal/nn ./internal/optim
	$(GO) test -run '^$$' -bench 'TrunkForward|TrunkBackward' -benchtime 5x ./internal/nn

## trace-demo: trace a real 4-rank EmbRace training run, print time by phase
## and write trace.json (Chrome trace-event format; open in Perfetto or
## chrome://tracing). The delayed-gradient AlltoAll appears on its own
## background lane, overlapping the next step's compute — §4.2.2 measured
## rather than simulated.
trace-demo:
	$(GO) run ./cmd/embrace-train -sched 2d -steps 8 -seed 7 -trace trace.json

## serve-demo: train a checkpoint, boot a 4-rank sharded inference
## deployment from it, and run the cache-on vs cache-off Zipf comparison
## (DESIGN.md §10). Cache-on must win p50 — the hot-row LRU turns the Zipf
## head into front-end-local reads.
serve-demo:
	$(GO) run ./cmd/embrace-train -steps 20 -workers 4 -vocab 1000 -dim 16 \
		-hidden 16 -checkpoint serve-demo.ckpt
	$(GO) run ./cmd/embrace-serve -checkpoint serve-demo.ckpt -ranks 4 \
		-cache 512 -clients 8 -requests 500 -zipf-s 1.6 -compare
	rm -f serve-demo.ckpt
