# Convenience targets; everything is plain cargo underneath.

.PHONY: build test lint trace-smoke chaos-smoke

build:
	cargo build --release

test:
	cargo test -q --workspace

lint:
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
