"""The generic GeNoC core: the paper's primary contribution.

This package contains the parametric specification framework -- travels,
configurations, the three constituent interfaces, the GeNoC interpreter, the
port dependency graph machinery, the proof obligations (C-1)-(C-5), the
three global theorems (correctness, deadlock freedom, evacuation) and the
end-to-end verification pipeline of Fig. 2.

Import every name from the module that defines it (for example
``from repro.core.theorems import check_deadlock_freedom``): the package
itself re-exports nothing, so loading one module never loads the rest.
"""
