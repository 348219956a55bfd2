"""Event-driven multi-chiplet performance model.

The engine executes micro-op DAGs over per-chiplet compute units (NTT,
MAS pair, AUT pair) and serialized links (ring C2C, per-chiplet HBM,
host ingress); the schedules module expands macro routines into those
DAGs following the ring/feed-forward dataflows.
"""

from .engine import (ChipletConfig, ConfigError, CycleReport, DeadlockDetected,
                     Engine, MicroOp, ScheduleBuilder)
from .schedules import (ASSIGNMENTS, ProgramError, build_keyswitch_digits,
                        build_keyswitch_ring, build_moddown_flow, build_strawman,
                        flatten, limb_owner, parse_program, run_workload,
                        schedule_keyswitch_digits, schedule_keyswitch_ring,
                        schedule_moddown_ring, schedule_strawman, sweep_chiplets)

__all__ = [
    "ASSIGNMENTS", "ChipletConfig", "ConfigError", "CycleReport", "DeadlockDetected",
    "Engine", "MicroOp", "ProgramError", "ScheduleBuilder", "build_keyswitch_ring",
    "build_moddown_flow", "build_keyswitch_digits", "build_strawman", "flatten",
    "limb_owner", "parse_program", "run_workload", "schedule_keyswitch_ring",
    "schedule_moddown_ring", "schedule_keyswitch_digits", "schedule_strawman",
    "sweep_chiplets",
]
