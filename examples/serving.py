#!/usr/bin/env python
"""Ordering as a service: the ``repro serve`` daemon end to end.

A synthesis pipeline or CI fleet that calls the optimizer from many
places wastes most of its wall-clock on per-call setup: pool spin-up,
cold caches, repeated kernel work for functions that are the same up to
variable renaming.  The daemon amortizes all three — one warm execution
backend, one shared canonical result cache, and single-flighted
duplicate requests — behind a newline-delimited-JSON socket.

This example embeds a server in-process (``running_server``; the
standalone form is ``python -m repro serve --port 7421``), drives it
with two clients, submits a whole manifest as one ``solve_many``
request, and reads the metrics that prove the sharing: duplicate
requests cost exactly one kernel sweep.

Run:  python examples/serving.py
"""

from repro.serve import ServeClient, ServeConfig, running_server


def main() -> None:
    # 1. Stand up a daemon: one warm backend, one shared cache.  The
    #    standalone equivalent:
    #    python -m repro serve --backend serial --jobs 2 --timeout 60
    config = ServeConfig(
        backend="serial", jobs=2, max_inflight=2,
        queue_limit=16, default_timeout=60.0,
    )
    with running_server(config) as server:
        host, port = server.address
        print(f"daemon listening on {host}:{port}")

        # 2. First client: a fresh function -> one kernel sweep.
        with ServeClient((host, port)) as client:
            first = client.solve(expr="x0 & x1 | x2 & x3 | x4 & x5",
                                 method="fs")
            order = " ".join(f"x{v}" for v in first["order"])
            print(f"client A: order {order}, {first['mincost']} internal "
                  f"nodes, exact={first['exact']}, "
                  f"from_cache={first['from_cache']}")

        # 3. Second client asks for the *same function with the variables
        #    renamed*.  The canonical fingerprint (support-reduced,
        #    permutation- and complement-canonicalized) matches, so the
        #    shared cache answers with zero kernel work.
        with ServeClient((host, port)) as client:
            second = client.solve(expr="x2 & x3 | x0 & x1 | x4 & x5",
                                  method="fs")
            order = " ".join(f"x{v}" for v in second["order"])
            print(f"client B: order {order}, {second['mincost']} internal "
                  f"nodes, from_cache={second['from_cache']}")

            # 4. Other methods travel too (fs_star does not: its problem
            #    is a live FSState, which has no JSON form).
            window = client.solve(expr="x0 & x1 | x2 & x3 | x4 & x5",
                                  method="window", width=3)
            print(f"window sweep: {window['mincost']} internal nodes "
                  f"(exact={window['exact']})")

            # 5. A whole manifest in one request line: solve_many
            #    fingerprints every item BEFORE queueing, so the three
            #    disguises of one new function below cost one sweep and
            #    the repeat of step 2's function costs none.  Per-item
            #    statuses say how each answer was produced, and every
            #    body is bit-identical to an individual solve's.
            batch = client.solve_many(
                [
                    {"expr": "x0 & x1 & x2 | x3"},
                    {"expr": "x3 | x2 & x1 & x0"},      # renamed duplicate
                    {"expr": "~(x0 & x1 & x2 | x3)"},   # complemented
                    {"expr": "x0 & x1 | x2 & x3 | x4 & x5"},  # step-2 repeat
                ],
                method="fs",
            )
            summary = batch["summary"]
            print(f"solve_many: {summary['items']} items, "
                  f"{summary['unique']} unique functions, statuses "
                  f"{batch['statuses']}")
            for body in batch["results"]:
                result = body["result"]
                print(f"  order={result['order']} "
                      f"mincost={result['mincost']} "
                      f"from_cache={result['from_cache']}")

            # 6. The metrics document proves the sharing: six fs solves
            #    of two distinct functions plus one window sweep — three
            #    kernel sweeps total, everything else cache-served.
            metrics = client.metrics()
            gauges = metrics["server"]
            print(f"server: {gauges['completed']} completed, "
                  f"{gauges['kernel_sweeps']} kernel sweeps, "
                  f"{gauges['cache_hit_solves']} cache-hit solves, "
                  f"{gauges['coalesced']} coalesced")
            print(f"cache : hit rate {metrics['cache']['hit_rate']:.2f} "
                  f"({metrics['cache']['hits']} hits / "
                  f"{metrics['cache']['misses']} misses)")

    # 7. Leaving the context drains the server: admitted work finishes,
    #    the pool and cache shut down cleanly.  The standalone daemon
    #    does the same on SIGTERM and exits 0.
    print("daemon drained cleanly")


if __name__ == "__main__":
    main()
