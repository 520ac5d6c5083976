"""Conservation invariants every finished cluster run must satisfy.

:func:`check_cluster_report` reads a :class:`~repro.cluster.ClusterReport`
together with the :class:`~repro.cluster.Cluster` that produced it (the
per-request arrival and deadline columns live on its replicas, the
device online spans in their pools).  ``conftest.py`` runs it after every
``Cluster.run`` in this package.
"""

import numpy as np


def check_cluster_report(cluster, report) -> None:
    assert sum(report.routed_counts) == cluster.config.total_requests
    assert report.num_requests == cluster.config.total_requests
    for replica, serve in zip(cluster.replicas, report.replica_reports):
        assert serve.served + serve.dropped == serve.num_requests
        unserved = np.isnan(serve.latencies)
        # A prediction exists exactly for the requests that were served.
        np.testing.assert_array_equal(serve.predictions == -1, unserved)
        assert int(np.count_nonzero(~unserved)) == serve.served
        assert sum(serve.batch_sizes) == serve.served
        served = ~unserved
        completions = replica.arrivals[served] + serve.latencies[served]
        misses = np.count_nonzero(replica.deadlines[served] < completions)
        assert int(misses) == serve.deadline_misses
        # A device lives from coming online until it retires or the
        # run ends (the last completion, or a later autoscaler event).
        run_end = max(report.makespan_s, cluster.engine.now)
        for busy, (start, end) in zip(serve.device_busy_seconds,
                                      replica.server.pool.online):
            online = (run_end if end is None else end) - start
            assert busy <= online, (busy, online)
