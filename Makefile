.PHONY: build test bench race verify

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem

race:
	go test -race ./...

# The full pre-merge gate (scripts/verify.sh): gofmt, vet, doclint,
# staticcheck when installed, build, tests, the race-detector suite, the
# bench/ module smoke test, the E20-E25 smokes and a short fuzz smoke.
verify:
	./scripts/verify.sh
