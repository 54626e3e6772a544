"""Simulation harness on top of the executable GeNoC specification.

The paper stresses that GeNoC instances are executable: "The same model is
used for simulation and validation."  This package provides the simulation
side: traffic generators (:mod:`repro.simulation.workloads`), a simulator
that runs a :class:`~repro.core.instance.NoCInstance` on a workload and
collects metrics (:mod:`repro.simulation.simulator`), per-run metrics
(:mod:`repro.simulation.metrics`) and step traces
(:mod:`repro.simulation.trace`).
"""
