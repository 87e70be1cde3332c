# Convenience targets; everything is plain cargo underneath.

.PHONY: build test lint results-check trace-smoke chaos-smoke

build:
	cargo build --release

test:
	cargo test -q --workspace

lint:
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The committed figures are the only copy of our numbers (README,
# "Results at a glance"): regenerate every section at the default scale
# and the strong-scaling sections at the paper's sizes, and compare each
# with the committed file of the same name. CI's `check` job runs this;
# the scale-1 weak and MCM sections (~6 min) have a CI job of their own:
#   bash scripts/results_check.sh results/scale1 1 table4 fig6 fig7 fig8
results-check:
	cargo build --release -p gsim-bench --bin gsim
	bash scripts/results_check.sh results 8
	bash scripts/results_check.sh results/scale1 1 \
		table1 table2 table3 table5 fig1 fig2 fig4a fig4b fig5 appendix

# End-to-end trace smoke (DESIGN.md §12): record → ingest → info → serve,
# then predict-from-trace must match the synthetic prediction bit for bit
# from exactly its own two timing simulations. Used by CI.
trace-smoke:
	cargo build --release -p gsim-bench --bin gsim
	bash scripts/trace_smoke.sh

# Overload/fault chaos smoke (DESIGN.md §13): boot the service with a
# deterministic fault plan and a tiny predict budget, drive it past
# saturation with serve_bench, and verify only 200/400/404/429/503/504
# come back, every 429 carries Retry-After, and shutdown drains within
# the grace period. Writes nothing into the checkout. Used by CI.
chaos-smoke:
	cargo build --release -p gsim-bench --bin gsim --bin serve_bench
	bash scripts/chaos_smoke.sh
