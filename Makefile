# Convenience targets mirroring .github/workflows/ci.yml.

.PHONY: ci fmt vet build test exp-race obs-race thermal-race serve-race report-smoke api-smoke cover fuzz bench bench-json bench-check bench-module golden

ci: fmt vet build test exp-race obs-race thermal-race serve-race report-smoke api-smoke cover fuzz bench-check bench-module

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

exp-race:
	go test -race -count=1 ./internal/exp/...

obs-race:
	go test -race -count=1 ./internal/obs/...

# The closed-loop thermal co-simulation under the race detector: the RC
# network and feedback coupler, plus the thermal paths through the
# simulator, the replay drivers, and the /v1/thermal endpoint.
thermal-race:
	go test -race -count=1 ./internal/thermal/...
	go test -race -count=1 -run 'Thermal' ./internal/sim/ ./internal/exp/ ./internal/serve/

# The serving core under the race detector, ten times: concurrent requests
# on every endpoint that reads the shared catalog, served bodies (miss and
# hit) byte-identical to direct simulator runs, and misses admitted while
# Close runs never stranded.
serve-race:
	go test -race -count=10 -run 'TestSharedCatalogUnderConcurrentRequests|TestServedBodiesMatchDirectRun|TestCloseNeverStrandsAdmittedMiss' ./internal/serve/

# End-to-end smoke of spacx-report's batch observability: one run writes a
# -metrics snapshot holding the experiment point counter.
report-smoke:
	@set -e; \
	go build -o /tmp/spacx-report ./cmd/spacx-report; \
	rm -f /tmp/report-smoke.prom; \
	/tmp/spacx-report -only table1 -metrics /tmp/report-smoke.prom >/dev/null; \
	grep -qm1 spacx_exp_points_total /tmp/report-smoke.prom; \
	echo "report smoke ok"

# End-to-end smoke of the spacx-serve API under the race detector:
# concurrent duplicated requests (cache + singleflight must engage), then a
# SIGTERM drain that must finish inside the linger window.
api-smoke:
	@./scripts/serve_smoke.sh

cover:
	@go test -coverprofile=cover.out ./... > /dev/null; \
	total=$$(go tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (baseline 80.0%)"; \
	awk -v t="$$total" 'BEGIN { if (t + 0 < 80.0) { print "coverage below baseline"; exit 1 } }'

fuzz:
	go test ./internal/dataflow -run '^$$' -fuzz FuzzTiling -fuzztime=10s
	go test ./internal/sim -run '^$$' -fuzz FuzzRunBatch -fuzztime=10s
	go test ./internal/serve -run '^$$' -fuzz FuzzSimulateRequest -fuzztime=10s
	go test ./internal/serve -run '^$$' -fuzz FuzzSweepPoint -fuzztime=10s
	go test ./internal/exp -run '^$$' -fuzz FuzzJSONFloat -fuzztime=10s

# Timed benchmarks across the repository (slow; for local investigation).
bench:
	go test -run=NONE -bench=. -benchmem ./...

# The benchmark-trajectory harness: the suites behind the committed
# BENCH_<area>.json baselines. eventsim covers the event-loop hot path;
# sim covers the analytical layer path, the two headline drivers and the
# /v1/thermal body writer.
BENCH_EVENTSIM_CMD = go test -run=NONE -bench=. -benchmem -benchtime=200ms ./internal/eventsim/
BENCH_SIM_CMD = { go test -run=NONE -bench=. -benchmem -benchtime=200ms ./internal/sim/; \
	go test -run=NONE -bench='Fig16Cold|Fig16LatencyThroughput|SingleLayerSPACX' -benchmem -benchtime=200ms .; \
	go test -run=NONE -bench='ThermalReportWrite' -benchmem -benchtime=200ms ./internal/exp/; }

# Regenerate the committed baselines after a deliberate performance change.
bench-json:
	$(BENCH_EVENTSIM_CMD) | go run ./cmd/spacx-bench -area eventsim -out BENCH_eventsim.json
	$(BENCH_SIM_CMD) | go run ./cmd/spacx-bench -area sim -out BENCH_sim.json

# Compare a fresh run against the committed baselines: ns/op drift warns
# (machine-dependent), allocs/op regressions fail (machine-independent).
bench-check:
	$(BENCH_EVENTSIM_CMD) | go run ./cmd/spacx-bench -area eventsim -compare BENCH_eventsim.json
	$(BENCH_SIM_CMD) | go run ./cmd/spacx-bench -area sim -compare BENCH_sim.json

# The end-to-end benchmark (e2ebench/) is its own Go module, so the root
# build, vet and test skip it; this catches a change that breaks a symbol
# its adapter calls before the benchmark run does.
bench-module:
	cd e2ebench && go vet ./... && go test ./...

# Regenerate the golden experiment snapshots after a deliberate change.
golden:
	go test ./internal/exp -run TestGolden -update
