# Convenience targets; everything is plain dune underneath.

.PHONY: all build test stress bench serve-demo guarantee churn lint \
	lint-baseline examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Robustness suites: adversarial LP corpus (degenerate / near-singular /
# badly scaled), revised-vs-dense differential checks, and planner-level
# solver-failure injection against the certified fallback chain.
stress:
	dune exec test/lp/test_lp_adversarial.exe
	dune exec test/lp/test_lp_differential.exe
	dune exec test/core/test_robust.exe

# The repo benchmark (BENCHMARK.json): four end-to-end workloads with
# per-layer metrics; see bench/e2e/README.md for its options.
bench:
	bash bench/e2e/run.sh

# Statistical bound-violation sweep (the certified-guarantee harness) with
# its JSON summary written next to the repo root.  Tune with
# GUARANTEE_SEEDS / GUARANTEE_SEED_OFFSET, e.g.
#   make guarantee GUARANTEE_SEEDS=500 GUARANTEE_SEED_OFFSET=1000
guarantee:
	GUARANTEE_SUMMARY=$(CURDIR)/_guarantee_sweep.json \
	  dune exec test/core/test_guarantee.exe

# Chaos campaign (the self-healing harness): crash / crash-restart /
# burst+bernoulli+crash schedules across rotating seeds, with its JSON
# summary written next to the repo root.  Tune with
# CHURN_SEEDS / CHURN_SEED_OFFSET, e.g.
#   make churn CHURN_SEEDS=500 CHURN_SEED_OFFSET=1000
churn:
	CHURN_SUMMARY=$(CURDIR)/_churn_sweep.json \
	  dune exec test/core/test_churn.exe

# Walk every serving regime (cold / coalesced / cache / pool / certified
# guarantee) on a tiny two-tenant server and print the stats and trace.
serve-demo:
	dune exec bin/serve_demo.exe

# Typed invariant lint (tools/repolint): determinism, hash-order,
# polymorphic comparison, partial accessors, stdout hygiene, plus the
# interprocedural certification-taint (R6) and domain-safety (R7) rules.
# The engine consumes dune-produced .cmt typedtrees, so the tree must be
# built first (@check materialises .cmt files @all alone leaves out).
# Exit 1 = fresh findings, exit 3 = stale baseline entries; writes a
# JSON report (schema repolint/2).
lint:
	dune build @all @check
	dune exec tools/repolint/repolint.exe -- --json _lint_report.json

# Regenerate lint_baseline.txt from the current findings.  Keep the
# baseline empty when you can: prefer fixing, or a scoped
# [@lint.allow "Rn"] next to the offending expression.
lint-baseline:
	dune build @all @check
	dune exec tools/repolint/repolint.exe -- --write-baseline

examples:
	dune exec examples/quickstart.exe
	dune exec examples/birdwatch.exe
	dune exec examples/lab_monitoring.exe
	dune exec examples/lossy_links.exe
	dune exec examples/building_monitor.exe

clean:
	dune clean
