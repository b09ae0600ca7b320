"""Cache-aware adaptive streaming simulation at a wireless access point.
Every name but these two entry points is imported from its module."""
from .cli_metrics import ScenarioConfig, run_replication

__all__ = ["ScenarioConfig", "run_replication"]
