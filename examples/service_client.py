#!/usr/bin/env python
"""Drive the optimization service end to end: daemon, client, live fork.

The library becomes a system: instead of calling `ScenarioRunner.run`
in-process, this example

1. starts the service daemon in this process on an ephemeral port (the
   same server `repro-ribbon serve` runs), backed by an on-disk snapshot
   store;
2. submits a small MT-WND scenario over HTTP with the Python client;
3. follows the NDJSON progress stream — state transitions plus
   best-so-far after every evaluation;
4. fetches the finished `SearchResult`;
5. reacts to a load change by forking the completed job: the fork shares
   the parent runner's lattice and simulation caches (the paper's
   Fig. 16 warm start), so re-optimizing for the new load is cheap;
6. re-submits the original scenario to show the store answering from
   history without re-searching.

Run:  python examples/service_client.py
"""

import tempfile
import threading

from repro import EvaluationBudget, PoolSpec, Scenario, WorkloadSpec
from repro.service import JobManager, ServiceClient, SnapshotStore, make_server


def main() -> None:
    # 1. The daemon: a JobManager (2 worker threads) + snapshot store
    #    behind the stdlib HTTP server, on an OS-assigned port.
    snapshot_dir = tempfile.mkdtemp(prefix="ribbon-service-")
    manager = JobManager(store=SnapshotStore(snapshot_dir), max_workers=2)
    server = make_server(manager, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    print(f"daemon: http://{host}:{port}  (snapshots in {snapshot_dir})")
    print(f"health: {client.health()}")

    # 2. Submit a scenario document over HTTP (kept small so the example
    #    finishes in seconds; scale n_queries/max_samples for fidelity).
    scenario = Scenario(
        "MT-WND",
        workload=WorkloadSpec(n_queries=2000, seed=1),
        pool=PoolSpec(families=("g4dn", "t3"), bounds=(5, 5)),
        budget=EvaluationBudget(max_samples=12),
    )
    job = client.submit(scenario, "ribbon", seed=0)
    print(f"\nsubmitted {job['id']} ({job['strategy']}, state {job['state']})")

    # 3. Live progress: one NDJSON line per state change / evaluation.
    for snap in client.stream(job["id"]):
        best = snap["best"]
        best_txt = (
            f"best ${best['cost_per_hour']:.3f}/hr {best['counts']}"
            if best
            else "no feasible pool yet"
        )
        print(f"  [{snap['state']:>12}] {snap['evaluations']:>3} evals — {best_txt}")

    # 4. The finished result, as the serialized SearchResult document.
    result = client.result(job["id"])["result"]
    print(
        f"\ndone: {result['method']} found {result['best']['families']} "
        f"{result['best']['counts']} at ${result['best_cost']:.3f}/hr "
        f"({result['n_samples']} samples)"
    )

    # 5. Load surge: fork the finished job onto a 1.3x workload.  The
    #    fork reuses the parent's materialized lattice + caches.
    fork = client.fork(job["id"], load_factor=1.3, seed=1)
    print(f"\nload x1.3 -> forked as {fork['id']} (from {fork['forked_from']})")
    final = client.wait(fork["id"])
    fork_result = client.result(fork["id"])["result"]
    print(
        f"fork {final['state']}: best ${fork_result['best_cost']:.3f}/hr "
        f"after {fork_result['n_samples']} samples"
    )

    # 6. Identical re-submission: answered from the store, no search.
    again = client.submit(scenario, "ribbon", seed=0)
    print(
        f"\nre-submitted identical scenario -> {again['id']} "
        f"(reused={again['id'] == job['id']})"
    )

    server.shutdown()
    server.server_close()
    manager.shutdown()


if __name__ == "__main__":
    main()
