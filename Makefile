# Developer entry points. `make check` is the expanded verification
# gate (build, gofmt, vet, tests, race detector); see check.sh.

.PHONY: build test check lint vet-tool fmt bench serve profile conformance fuzz-smoke

build:
	go build ./...

test:
	go test ./...

check:
	./check.sh

# Lint the bundled sample configuration end to end (smoke test of the
# afdx-lint CLI; expects a clean exit).
lint:
	go run ./cmd/afdx-lint -rules

# Run the determinism-contract checker over the whole tree (the same
# gate check.sh enforces; exit 1 on any unsuppressed DET finding).
vet-tool:
	go run ./cmd/afdx-vet ./...

fmt:
	gofmt -w .

# Run the repository benchmark (perfbench/README.md): every workload,
# untraced then traced, with its answer checks; exits non-zero on any
# failed run or wrong answer. For another seed or run length call
# the script directly: bash perfbench/all.sh <seed> <seconds>.
bench:
	bash perfbench/all.sh

# Start the analysis daemon on the default loopback port (see README
# "Serving" for the curl walkthrough; Ctrl-C drains gracefully).
serve:
	go run ./cmd/afdx-serve -addr 127.0.0.1:8723

# Capture CPU and heap profiles of the full industrial analysis under
# profiles/ (gitignored); inspect with `go tool pprof`.
profile:
	mkdir -p profiles
	go run ./cmd/afdx-gen -seed 1 -out profiles/industrial.json
	go run ./cmd/afdx-bounds -config profiles/industrial.json \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof \
		-metrics profiles/metrics.json > /dev/null
	@echo "profiles written: profiles/{cpu,mem}.pprof, profiles/metrics.json"

# Cross-engine differential campaign: deterministic family, full
# invariant lattice, shrunk reproductions land in the replay corpus.
conformance:
	go run ./cmd/afdx-conformance -n 500 -seed 1 -corpus internal/conformance/testdata

# Run every native fuzz target for ~10s (the smoke tier; longer runs
# are a manual `go test -fuzz=... -fuzztime=10m` away).
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/afdx
	go test -run '^$$' -fuzz '^FuzzConformanceConfig$$' -fuzztime 10s ./internal/conformance
	go test -run '^$$' -fuzz '^FuzzFIFOResidual$$' -fuzztime 10s ./internal/minplus
