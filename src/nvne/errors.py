"""Exception types raised by the simulator, one class per outcome a caller can act on.

- NvneError: base class of every error the package raises (CLI exit 3, "error:").
- ConfigError: a scenario file is malformed; the message names the key (exit 2, "config error:").
- DomainError: an input lies outside the mathematical domain (exit 3, "domain error:").
- NumericalFailure: valid inputs gave no usable result (exit 3, "error:").
- IoError: output files could not be written (exit 3, "error:").

DomainError covers non-Hermitian, non-positive and zero-trace matrices, mismatched
dimensions and closed forms asked for outside their range. NumericalFailure covers a
failed eigensolver, a step whose generator overflows or is too stiff, a q-equilibrium
outside floating-point range, and a phase signal too weak to fit or a phase that is not finite.
"""


class NvneError(Exception):
    pass


class ConfigError(NvneError):
    pass


class DomainError(NvneError):
    pass


class NumericalFailure(NvneError):
    pass


class IoError(NvneError):
    pass
