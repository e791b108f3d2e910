"""Readable oracles for the production kernels of IDDE-G.

The production game, delivery and evaluation loops are vectorised; the
modules here are the literal per-user / per-item transcriptions they
must replay bit-for-bit (the compiled path-cost kernel must agree with
its pure-Python oracle to rounding):

* :mod:`tests.oracles.game` — the per-user IDDE-U runners (Phase 1) and
  the per-user ε-Nash certificate;
* :mod:`tests.oracles.certificate` — the ε-Nash certificate evaluated
  from the formulas (Eqs. 2 and 12) and the scenario arrays, sharing no
  code with the SINR engine;
* :mod:`tests.oracles.delivery` — the per-item greedy placement sweep
  (Phase 2);
* :mod:`tests.oracles.evaluation` — the per-item retrieval-cost loop
  (Eq. 8) and the user-by-user attached request counts;
* :mod:`tests.oracles.shortest_path` — the pure-Python Dijkstra behind
  the all-pairs path costs of Eq. 8;
* :mod:`tests.oracles.parity` — the harness comparing production against
  oracle on the shared bench fixtures (``test_parity.py`` runs it; set
  ``IDDE_ORACLE_SCALE=M`` to run the grid at the paper's operating point).
"""
