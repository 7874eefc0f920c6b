# Convenience targets; `make check` is the pre-PR gate (DESIGN.md §7).

.PHONY: check test bench build lint loc

check:
	sh scripts/check.sh

# Run the determinism & invariant analyzers (DESIGN.md §9). Complements
# go vet; also part of `make check` and the CI lint job.
lint:
	go run ./cmd/fdwlint ./...

build:
	go build ./...

test:
	go test ./...

bench:
	go test -run '^$$' -bench . -benchmem .

# Non-test Go LOC, the size measure simplicity changes report before
# and after (ROADMAP aim 2).
loc:
	@git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l
