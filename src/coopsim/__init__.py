"""coopsim: directional-statement toolchain and deterministic trust simulator.

Modules:

* statements  - grammar, parser, canonical printer, equivalence
* trust       - five-level appreciation stores and assessment policies
* appraisal   - consultant credibility, gating, attribute install rules
* lifecycle   - fragment cohorts (statement, subjects, token) and their
                linear fading
* agents      - trust-driven behavior rules of a single agent
* reputation  - letter-of-recommendation flow and survey averaging
* scenario    - the scenario directive table and its loader
* engine      - tick-driven scenario runner with byte-stable traces
* corpus      - worked statement corpus in canonical notation
* cli         - the ``coopsim`` command line front end

The package defines nothing itself: import each name from its module.
"""
