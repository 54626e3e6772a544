"""Reporting: the Table I analogue (:mod:`repro.reporting.effort`), table
formatting (:mod:`repro.reporting.tables`) and Graphviz export
(:mod:`repro.reporting.dot`)."""
