from .simple import van_der_pol, duffing, pendulum
from .shaft import ShaftElementProps, shaft_element_matrices
from .disk import DiskProps, disk_matrices
from .bearing import BearingParams, bearing_force, cage_speed
from .sfd import (
    SFDParams,
    FilmRuptureError,
    gauss_legendre_15,
    sommerfeld_integral,
    sfd_force,
    sfd_rotor_system,
    default_sfd_params,
)
from .rotor import (
    RotorLayout,
    DiskPlacement,
    ShaftElement,
    SupportBearing,
    InterShaftBearing,
    assemble_dual_rotor,
    default_dual_rotor_layout,
    dual_rotor_system,
    load_rotor_layout,
)

__all__ = [
    "van_der_pol",
    "duffing",
    "pendulum",
    "ShaftElementProps",
    "shaft_element_matrices",
    "DiskProps",
    "disk_matrices",
    "BearingParams",
    "bearing_force",
    "cage_speed",
    "SFDParams",
    "FilmRuptureError",
    "gauss_legendre_15",
    "sommerfeld_integral",
    "sfd_force",
    "sfd_rotor_system",
    "default_sfd_params",
    "RotorLayout",
    "DiskPlacement",
    "ShaftElement",
    "SupportBearing",
    "InterShaftBearing",
    "assemble_dual_rotor",
    "default_dual_rotor_layout",
    "dual_rotor_system",
    "load_rotor_layout",
]
