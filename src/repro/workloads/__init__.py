"""Workload generation and execution: MT workloads, Cobra-style GT
workloads, Elle-style list-append workloads, synthetic LWT histories, and
the runner that records histories from the database simulator."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "DISTRIBUTION_NAMES": ".distributions",
    "ExponentialDistribution": ".distributions",
    "HotKeyZipfDistribution": ".distributions",
    "HotspotDistribution": ".distributions",
    "KeyDistribution": ".distributions",
    "UniformDistribution": ".distributions",
    "ZipfianDistribution": ".distributions",
    "make_distribution": ".distributions",
    "GTWorkloadGenerator": ".gt_generator",
    "GTWorkloadMix": ".gt_generator",
    "AppendOp": ".list_append",
    "ElleHistory": ".list_append",
    "ElleTransaction": ".list_append",
    "ListAppendWorkloadGenerator": ".list_append",
    "ReadListOp": ".list_append",
    "run_list_append_workload": ".list_append",
    "LWTHistoryGenerator": ".lwt_generator",
    "MTWorkloadGenerator": ".mt_generator",
    "MTWorkloadMix": ".mt_generator",
    "RunResult": ".runner",
    "RunStats": ".runner",
    "WorkloadRunner": ".runner",
    "run_workload": ".runner",
    "TRAFFIC_SHAPE_NAMES": ".spec",
    "PlannedOpKind": ".spec",
    "PlannedOperation": ".spec",
    "TrafficShape": ".spec",
    "TransactionSpec": ".spec",
    "Workload": ".spec",
    "make_traffic_shape": ".spec",
})
