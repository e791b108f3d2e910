"""Readable oracles for the production kernels of IDDE-G.

The production game and delivery loops are vectorised; the modules here
are the literal per-user / per-item transcriptions of Algorithm 1 they
must replay bit-for-bit:

* :mod:`tests.oracles.game` — the per-user IDDE-U runners (Phase 1) and
  the per-user ε-Nash certificate;
* :mod:`tests.oracles.delivery` — the per-item greedy placement sweep
  (Phase 2);
* :mod:`tests.oracles.parity` — the harness comparing production against
  oracle on the shared bench fixtures (``test_parity.py`` runs it; set
  ``IDDE_ORACLE_SCALE=M`` to run the grid at the paper's operating point).
"""
