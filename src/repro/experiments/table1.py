"""Table 1: steering-unit complexity comparison.

The paper compares the hardware structures needed by the hardware-only
occupancy-aware steering (OP) and the hybrid virtual clustering (VC).  This
driver reproduces the table for a line-up of configurations -- the ``table1``
scenario's is all five Table 3 configurations -- and adds the storage
estimate and serialisation flag from :mod:`repro.complexity.model`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.config import ClusterConfig
from repro.complexity.model import complexity_table
from repro.experiments.configs import SteeringConfiguration


def run_table1(
    config: ClusterConfig,
    num_virtual_clusters: int,
    configurations: Sequence[SteeringConfiguration],
) -> List[Dict[str, object]]:
    """Reproduce Table 1 for ``configurations`` on the ``config`` machine.

    Parameters
    ----------
    config:
        Machine configuration.
    num_virtual_clusters:
        Mapping-table size of the VC policy.
    configurations:
        Configurations to compare, one row each.
    """
    policies = [
        configuration.make_policy(config.num_clusters, num_virtual_clusters)
        for configuration in configurations
    ]
    return complexity_table(policies, config)


def paper_table1_claims(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """Check the qualitative claims of Table 1 against reproduced rows.

    Returns a dictionary of named boolean checks (all should be ``True``):
    OP needs the dependence check and the vote unit, VC needs neither, both
    need workload-balance management, and VC's storage is far smaller.
    """
    by_name = {row["steering algorithm"]: row for row in rows}
    op = by_name["OP"]
    vc = by_name["VC"]
    return {
        "op_has_dependence_check": op["dependence check"] == "yes",
        "op_has_vote_unit": op["vote unit"] == "yes",
        "op_serialized": op["serialized"] == "yes",
        "vc_no_dependence_check": vc["dependence check"] == "no",
        "vc_no_vote_unit": vc["vote unit"] == "no",
        "vc_not_serialized": vc["serialized"] == "no",
        "both_have_workload_counters": (
            op["workload balance management"] == "yes"
            and vc["workload balance management"] == "yes"
        ),
        "vc_storage_much_smaller": float(vc["storage bits"]) < 0.25 * float(op["storage bits"]),
    }
