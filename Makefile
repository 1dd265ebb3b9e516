# Convenience targets; everything is plain pytest underneath.

.PHONY: install test bench-smoke bench-tables examples verify-smoke all

install:
	pip install -e '.[test]' --no-build-isolation || \
	  echo "$$(pwd)/src" > "$$(python -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth"

test:
	pytest tests/

# Quick sanity pass of the perf-engine benchmark: small sizes, relaxed
# speedup floor, baseline left untouched.
bench-smoke:
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_perf_engine.py -s

# The experiment tables and their claims.  Deselecting the `bench`
# marker keeps bench_perf_engine.py from rewriting BENCH_engine.json.
bench-tables:
	pytest benchmarks/ -m "not bench" -s

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; done

# Guarantee-certification smoke: seed audit over the whole tree, then a
# quick paper-budget certification of two representative estimators.
verify-smoke:
	python -m repro verify seeds
	python -m repro verify guarantee --algorithm edge-sampling-triangles \
	  --algorithm mvv-twopass-triangles --budget-from-paper --quick \
	  --batch 25 --max-trials 50

all: test bench-tables
