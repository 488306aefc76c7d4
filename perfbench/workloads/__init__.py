"""The five workloads, in the order the benchmark runs and prints them."""

from perfbench.workloads.bulk_tree import BulkTree
from perfbench.workloads.catalog import CatalogReadSharded, CatalogWriteReplicated
from perfbench.workloads.recovery_churn import RecoveryChurn
from perfbench.workloads.rpc_echo_wan import RpcEchoWan

WORKLOADS = {w.name: w for w in (
    RpcEchoWan(), BulkTree(), CatalogReadSharded(), CatalogWriteReplicated(), RecoveryChurn(),
)}
