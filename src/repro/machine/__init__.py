"""Hoisting and a CBV machine: the paper's "statically allocated code" story."""

from repro.machine.hoist import Program, check_program, hoist, unhoist
from repro.machine.machine import (
    MachineError,
    MachineStats,
    MBool,
    MClo,
    MCode,
    MNat,
    MPair,
    MType,
    MUnit,
    Value,
    machine_observation,
    run,
)

__all__ = [
    "MBool",
    "MClo",
    "MCode",
    "MNat",
    "MPair",
    "MType",
    "MUnit",
    "MachineError",
    "MachineStats",
    "Program",
    "Value",
    "check_program",
    "hoist",
    "machine_observation",
    "unhoist",
    "run",
]
