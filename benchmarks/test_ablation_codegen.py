"""Ablation: code generation vs. interpretation (Fig. 2, §7).

The paper's Code Generator exists "to reduce the interpretation overhead
that hurts the performance of pipelined query engines".  Here that overhead
is the expression-tree walk per record, and code generation is
``monoid.expressions.compiled``: every predicate, key and head of a plan
compiled once to a Python function.  The engine always runs the compiled
form, so the ablation is at the expression level: the Fig. 5 query runs
once while every compiled expression's environment stream is recorded, then
each stream is replayed through the interpreter and through the compiled
function.  Values must be identical; only wall-clock differs.
"""

import time

from workloads import NUM_NODES, customer_small

from repro import CleanDB
from repro.engine.gcpause import collector_paused
from repro.monoid import compiled, evaluate
from repro.physical import lower

QUERY = (
    "SELECT * FROM customer c "
    "FD(c.address, prefix(c.phone)) "
    "FD(c.address, c.nationkey) "
    "DEDUP(exact, LD, 0.5, c.address)"
)


def record_streams(monkeypatch):
    """Run the query; return ``[(expr, funcs, envs)]`` for every expression
    the executor compiled, with the environments it was called on."""
    streams = []

    def recording(expr):
        fn = compiled(expr)
        stream = [expr, None, []]
        streams.append(stream)

        def run(env, funcs=None):
            stream[1] = funcs
            stream[2].append(env)
            return fn(env, funcs)

        return run

    records, _ = customer_small()
    db = CleanDB(num_nodes=NUM_NODES)
    db.register_table("customer", records)
    with monkeypatch.context() as patch:
        patch.setattr(lower, "compiled", recording)
        db.execute(QUERY)
    return [tuple(stream) for stream in streams if stream[2]]


def replay(streams, make_fn):
    # Timed with the cycle collector paused, as ``timeit`` does: a full
    # collection pass costs several times a whole replay and lands in
    # whichever one crosses the collector's threshold.
    with collector_paused():
        start = time.perf_counter()
        values = []
        for expr, funcs, envs in streams:
            fn = make_fn(expr)  # once per operator, as the executor does
            values.append([fn(env, funcs) for env in envs])
        return values, time.perf_counter() - start


def test_ablation_codegen(benchmark, report, monkeypatch):
    streams = record_streams(monkeypatch)
    assert sum(len(envs) for _, _, envs in streams) > 1000

    def run():
        interpreted, wall_i = replay(
            streams, lambda expr: lambda env, funcs: evaluate(expr, env, funcs)
        )
        generated, wall_g = replay(streams, compiled)
        return interpreted, generated, wall_i, wall_g

    interpreted, generated, wall_i, wall_g = benchmark.pedantic(
        run, rounds=3, iterations=1
    )
    rows = [
        {"mode": "interpreted", "wall_seconds": round(wall_i, 4)},
        {"mode": "generated", "wall_seconds": round(wall_g, 4)},
    ]
    from repro.evaluation import print_table

    report(print_table("Ablation: code generation vs interpretation", rows))

    # Identical answers, expression by expression and record by record.
    assert interpreted == generated
    # Compiling removes the tree walk per record; it must not cost time.
    assert wall_g <= wall_i
