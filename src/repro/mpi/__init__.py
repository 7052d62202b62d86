"""MPI-level interfaces: Mad-MPI and the baseline models.

* :class:`MadMPI` / :class:`MadMPIComm` — the MPI interface to
  NewMadeleine + PIOMan (:mod:`repro.mpi.madmpi`);
* :class:`MVAPICHLike` / :class:`OpenMPILike` — the big-lock baselines
  the paper compares against (:mod:`repro.mpi.baseline`);
* :mod:`repro.mpi.collectives` — log-P collectives over any of them;
* ``IMPLEMENTATIONS`` — the three compared in the paper's evaluation.

The names load on first access, so a Mad-MPI world loads neither
baseline model.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(__name__, {
    "repro.mpi.madmpi": ("ANY_SOURCE", "ANY_TAG", "MadMPI", "MadMPIComm"),
    "repro.mpi.baseline": (
        "BigLockMPI", "BigLockComm", "MVAPICHLike", "OpenMPILike", "IMPLEMENTATIONS",
    ),
    "repro.mpi.collectives": ("collectives",),
})

__all__ = [
    "collectives",
    "ANY_SOURCE",
    "ANY_TAG",
    "MadMPI",
    "MadMPIComm",
    "BigLockMPI",
    "BigLockComm",
    "MVAPICHLike",
    "OpenMPILike",
    "IMPLEMENTATIONS",
]
