"""
Binary snapshot format "S1WF" for six-component wave fields.

Layout (little-endian throughout):
    magic   4 bytes  "S1WF"
    u32     version (= 1)
    u32     nx, ny, nz
    f64     lx, ly, lz
    f64     mass
    f64     time
    data    6*nx*ny*nz complex values as (re: f64, im: f64) pairs,
            component order (u_x, u_y, u_z, v_x, v_y, v_z),
            x-index fastest within each component; every value finite.

Round trips are bit-exact.  read_snapshot raises FormatError for a file
that breaks the layout, a header value out of range or a field value that
is not finite (write_snapshot never writes one: a run stops first).
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError
from .fields import Grid, WaveField

MAGIC = b"S1WF"
VERSION = 1
_HEADER = struct.Struct("<4sIIII5d")


def write_snapshot(psi: WaveField, path) -> None:
    g = psi.grid
    header = _HEADER.pack(
        MAGIC, VERSION, g.nx, g.ny, g.nz, g.lx, g.ly, g.lz, psi.mass, psi.time
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for comp in psi.data:
            fh.write(np.ascontiguousarray(comp.ravel(order="F"), dtype="<c16").tobytes())


def read_snapshot(path) -> WaveField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(
            f"file truncated: header needs {_HEADER.size} bytes, found {len(raw)}"
        )
    magic, version, nx, ny, nz, lx, ly, lz, mass, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version: {version}")
    try:
        grid = Grid(nx, ny, nz, lx, ly, lz)
    except ValueError as exc:
        raise FormatError(f"invalid grid header: {exc}") from exc
    if not (math.isfinite(mass) and mass >= 0):
        raise FormatError(f"invalid mass in header: {mass!r}")
    if not math.isfinite(time):
        raise FormatError(f"invalid time in header: {time!r}")
    count = 6 * grid.npoints
    expected = _HEADER.size + 16 * count
    if len(raw) < expected:
        raise FormatError(
            f"file truncated: expected {expected - _HEADER.size} bytes of field data, "
            f"found {len(raw) - _HEADER.size}"
        )
    if len(raw) > expected:
        raise FormatError(f"trailing data: {len(raw) - expected} unexpected bytes")
    flat = np.frombuffer(raw, dtype="<c16", count=count, offset=_HEADER.size)
    comps = flat.reshape(6, grid.npoints)
    for i, comp in enumerate(comps):  # one component at a time: no stack-sized mask
        if not np.isfinite(comp).all():
            raise FormatError(f"field data of component {i} holds a value that is not finite")
    data = np.stack([c.reshape(grid.shape, order="F") for c in comps])
    return WaveField(grid, data, mass, time)
