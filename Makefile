# Convenience targets for the hqnn workspace.

CARGO ?= cargo
PROFILE_DIR ?= experiment-results

.PHONY: build test repro profile smoke obs-smoke lint sched-check fmt clippy clean

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

# Full fast-profile reproduction (tables + cached study).
repro:
	$(CARGO) run -p hqnn-bench --release --bin repro

# Profiled reproduction: span-tree profile on stderr (HQNN_LOG=debug shows
# every span/counter event) and a machine-readable JSONL trace on disk.
profile:
	$(CARGO) run -p hqnn-bench --release --bin repro -- \
		--log-json $(PROFILE_DIR)/repro-trace.jsonl
	@echo "telemetry trace written to $(PROFILE_DIR)/repro-trace.jsonl"

# Seconds-scale end-to-end check (used by CI).
smoke:
	$(CARGO) run -p hqnn-bench --release --bin repro -- --smoke --fresh \
		--cache /tmp/hqnn-smoke --log-json /tmp/hqnn-smoke.jsonl

# Tiny traced study (debug-level spans, alloc counting on), then every
# hqnn-obs subcommand exercised against the resulting JSONL trace. The
# critical-path report lands next to the trace for CI artifact upload.
OBS_DIR ?= /tmp/hqnn-obs-smoke
obs-smoke:
	mkdir -p $(OBS_DIR)
	HQNN_LOG=debug HQNN_ALLOC=1 $(CARGO) run -p hqnn-bench --release --bin repro -- \
		--smoke --fresh --cache $(OBS_DIR)/study --log-json $(OBS_DIR)/trace.jsonl
	$(CARGO) run -q -p hqnn-obs --release --bin hqnn-obs -- critical-path $(OBS_DIR)/trace.jsonl \
		| tee $(OBS_DIR)/critical-path.txt
	$(CARGO) run -q -p hqnn-obs --release --bin hqnn-obs -- tree $(OBS_DIR)/trace.jsonl
	$(CARGO) run -q -p hqnn-obs --release --bin hqnn-obs -- diff $(OBS_DIR)/trace.jsonl $(OBS_DIR)/trace.jsonl
	$(CARGO) run -q -p hqnn-obs --release --bin hqnn-obs -- grep $(OBS_DIR)/trace.jsonl event=span
	$(CARGO) run -q -p hqnn-obs --release --bin hqnn-obs -- flamegraph-diff \
		$(OBS_DIR)/trace.jsonl $(OBS_DIR)/trace.jsonl --weight bytes
	@echo "obs-smoke artifacts in $(OBS_DIR)"

# Static analysis gate: the workspace invariant linter (determinism, panic
# hygiene, env registry, span naming — see `hqnn-lint --list-rules`), the
# circuit-IR verifier smoke tests, and clippy with warnings denied.
lint:
	$(CARGO) run -q -p hqnn-lint --bin hqnn-lint
	$(CARGO) test -q -p hqnn-qsim --test circuit_verify
	$(CARGO) clippy --workspace --all-targets -q -- -D warnings

# Schedule-permutation model check: replay the parallel maps under >= 50
# seeded adversarial interleavings and assert bitwise-identical outputs
# plus budget/live-concurrency invariants (the CI hard gate, locally).
sched-check:
	HQNN_THREADS=4 $(CARGO) test -q -p hqnn-runtime --test schedule_permutation

fmt:
	$(CARGO) fmt --all

clippy:
	$(CARGO) clippy --workspace --all-targets

clean:
	$(CARGO) clean
