# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint check e2e-pins bench repro repro-full examples \
  clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Repo-specific static checks: the parsetree rules R1-R7 (determinism,
# serialization, unit hygiene) plus the typedtree suite A0-A3 (zero-alloc
# hot paths, Domain safety, interprocedural determinism) driven by
# tool/simlint/hotpaths.sexp; see DESIGN.md "Static analysis". Needs the
# .cmt files, so it builds first; LINT_REPORT.json is the machine-readable
# copy CI uploads.
lint: build
	dune exec tool/simlint/simlint.exe -- --cmt _build/default \
	  --manifest tool/simlint/hotpaths.sexp --json LINT_REPORT.json \
	  lib bin bench test examples tool

# CI entrypoint: build, run the full test suite, the lint pass and the
# allocation gates (deterministic Gc.minor_words budgets per hot kernel),
# then smoke-test the parallel executor, result cache and event tracing end to
# end — the quick fig03 CSV must match the committed golden copy
# byte-for-byte (the simulator is deterministic; any diff is a semantics
# change and must be reviewed by re-blessing test/golden/fig03_quick.csv),
# a second cached run of fig03 must re-simulate nothing, and a traced run of
# ext-internals (a few short configs, so a few hundred MB of JSONL rather
# than fig03's 5 GB) must print its trace summary and leave .jsonl and
# .metrics files. The fluidgrid CSV is produced
# twice from one cache and both copies must match the golden one: the cold
# run must simulate all 22 analytic specs and the warm run none, which
# smoke-tests the analytic-backend cache path as fig03 does the packet one.
# After the cached runs the cache directory must hold only .pack files, at
# most one per invocation that simulated something (cold fig03, fig01,
# fig05, cold fluidgrid and evolve: five); the warm runs' "; 0 simulated"
# reads what the earlier processes appended.
# The ext-2flow and ext-utility goldens pin the equilibrium check on the
# 2-flow and the symmetric n-flow game.
CHECK_CACHE := $(or $(TMPDIR),/tmp)/bbr-equilibrium-check-cache
CHECK_TRACE := $(or $(TMPDIR),/tmp)/bbr-equilibrium-check-trace
CHECK_OUT := $(or $(TMPDIR),/tmp)/bbr-equilibrium-check-out
# `cmd | $(call expect,REGEX)` copies cmd's output to stderr and fails unless
# a line matches REGEX. It writes through the inherited descriptor (>&2):
# `tee /dev/stderr` would reopen stderr and truncate a redirected log.
expect = awk '{ print; fflush() } /$(1)/ { ok = 1 } END { exit !ok }' >&2
check: build test lint
	dune exec bench/main.exe -- --alloc-gate
	rm -rf "$(CHECK_CACHE)" "$(CHECK_TRACE)" "$(CHECK_OUT)"
	dune exec bin/repro.exe -- run fig03 --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)"
	cmp test/golden/fig03_quick.csv "$(CHECK_OUT)/fig03.csv"
	dune exec bin/repro.exe -- run fig03 --jobs 2 --cache "$(CHECK_CACHE)" \
	  | $(call expect,; 0 simulated)
	dune exec bin/repro.exe -- run ext-internals --jobs 2 \
	  --trace "$(CHECK_TRACE)" | $(call expect,ext-internals trace: traces=)
	ls "$(CHECK_TRACE)"/*.jsonl > /dev/null
	ls "$(CHECK_TRACE)"/*.metrics > /dev/null
	dune exec bin/repro.exe -- run fig01 --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)"
	cmp test/golden/fig01_quick.csv "$(CHECK_OUT)/fig01.csv"
	dune exec bin/repro.exe -- run fig05 --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)"
	cmp test/golden/fig05_quick.csv "$(CHECK_OUT)/fig05.csv"
	dune exec bin/repro.exe -- run fluidgrid --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)" | $(call expect,; 22 simulated)
	cmp test/golden/fluidgrid_quick.csv "$(CHECK_OUT)/fluidgrid.csv"
	dune exec bin/repro.exe -- run fluidgrid --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)" | $(call expect,; 0 simulated)
	cmp test/golden/fluidgrid_quick.csv "$(CHECK_OUT)/fluidgrid.csv"
	dune exec bin/repro.exe -- evolve --jobs 2 --cache "$(CHECK_CACHE)" \
	  --out "$(CHECK_OUT)"
	cmp test/golden/evolve_quick.csv "$(CHECK_OUT)/evolve.csv"
	@packs=$$(ls "$(CHECK_CACHE)" | grep -c '\.pack$$'); \
	others=$$(ls "$(CHECK_CACHE)" | grep -vc '\.pack$$'); \
	echo "cache: $$packs packs, $$others other files"; \
	test "$$others" -eq 0 && test "$$packs" -ge 1 && test "$$packs" -le 5 \
	  || { echo "check: the result cache must hold only packs, at most one \
	per simulating invocation"; exit 1; }
	dune exec bin/repro.exe -- run ext-short --jobs 2 --out "$(CHECK_OUT)"
	cmp test/golden/ext_short_quick.csv "$(CHECK_OUT)/ext-short.csv"
	dune exec bin/repro.exe -- run ext-2flow --jobs 2 --out "$(CHECK_OUT)"
	cmp test/golden/ext_2flow_quick.csv "$(CHECK_OUT)/ext-2flow.csv"
	dune exec bin/repro.exe -- run ext-utility --jobs 2 --out "$(CHECK_OUT)"
	cmp test/golden/ext_utility_quick.csv "$(CHECK_OUT)/ext-utility.csv"
	dune exec bin/repro.exe -- run workload --jobs 1 --out "$(CHECK_OUT)"
	cmp test/golden/workload_quick.csv "$(CHECK_OUT)/workload.csv"
	dune exec bin/repro.exe -- run workload --jobs 4 --out "$(CHECK_OUT)"
	cmp test/golden/workload_quick.csv "$(CHECK_OUT)/workload.csv"
	dune exec bin/repro.exe -- fuzz --count 60 --seed 1 --jobs 2 \
	  --replay-out "$(CHECK_OUT)/fuzz-failure.scenario"
	dune exec bin/repro.exe -- fuzz --backend fluid --count 25 --seed 1 \
	  --jobs 2 --replay-out "$(CHECK_OUT)/fuzz-failure.scenario"
	dune exec bin/repro.exe -- fuzz --backend ode --count 25 --seed 1 \
	  --jobs 2 --replay-out "$(CHECK_OUT)/fuzz-failure.scenario"
	rm -rf "$(CHECK_CACHE)" "$(CHECK_TRACE)" "$(CHECK_OUT)"
	@echo "check: OK"

# Byte-identity guard on the end-to-end benchmark (e2ebench/README.md):
# one short untraced run of each workload at seed 1 checks every operation
# against its pinned digest under e2ebench/pinned/. The goldens in `check`
# cover the figure CSVs; these pins cover the benchmark's own batches, on
# which a speed-only change is judged. Fails unless the result line reports
# operations attempted and none failed.
E2E_WORKLOADS := long-flows churn analytic-sweep
e2e-pins:
	@for w in $(E2E_WORKLOADS); do \
	  line=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 1 \
	    --trace 0 | tail -n 1); \
	  echo "$$w: $$(echo "$$line" | grep -o '"attempted": [0-9]*, "failed": [0-9]*')"; \
	  echo "$$line" | grep -q '"attempted": [1-9][0-9]*, "failed": 0,' \
	    || { echo "e2e-pins: $$w failed its pinned digests"; exit 1; }; \
	done; echo "e2e-pins: OK"

bench:
	dune exec bench/main.exe

repro:
	dune exec bin/repro.exe -- all --out results

repro-full:
	dune exec bin/repro.exe -- all --full --out results-full

examples:
	dune exec examples/quickstart.exe
	dune exec examples/custom_cca.exe
	dune exec examples/ne_prediction.exe
	dune exec examples/buffer_sizing.exe
	dune exec examples/trace_dynamics.exe

doc:
	dune build @doc

clean:
	dune clean
