"""Importer for ChampSim-style load/store (LS) text traces.

ChampSim's classic LS-trace interchange form is one access per line::

    <pc> <address> <L|S>

with hexadecimal (``0x``-prefixed or bare) or decimal integers and an
optional access-type column.  Real-world dumps vary — some write ``R``/
``W`` or ``0``/``1`` for the type, some omit it, most mix in blank lines
and ``#`` comments — so the parser is tolerant about layout: any line
whose first two whitespace-separated fields parse as integers is an
access, and anything unparsable raises with the offending line number
rather than silently producing a wrong stream.

The *radix* of bare (un-prefixed) numbers, however, is decided once per
file, never per token: guessing per token would read ``7f1a400`` as hex
but ``41000200`` — hex digits that happen to all be decimal — as decimal,
silently corrupting the stream.  By default a sniff pass checks whether
any bare field contains a hex letter (ChampSim's usual bare-hex form);
callers can force ``radix="hex"`` or ``radix="dec"``.  ``0x``-prefixed
fields are always hexadecimal.  ``.gz`` inputs are decompressed
transparently (by suffix *or* magic), since trace archives usually ship
compressed.

The importer returns a :class:`~repro.traces.format.PackedTrace` (columns,
not objects), so even multi-million-access files import in bounded memory;
:func:`~repro.traces.format.save_trace` then persists it as ``.rtrc`` —
zlib-compressed column chunks, many times smaller than the text dump —
after which the file is a first-class workload name (``trace:<name>``)
anywhere a generated workload is accepted.
"""

from __future__ import annotations

import gzip
import warnings
from array import array
from pathlib import Path
from typing import IO, Iterator

from repro.traces.format import _GZIP_MAGIC, PackedTrace, _pack_bits

#: Access-type tokens accepted in the optional third column.
_WRITE_TOKENS = {"s", "w", "1", "store", "write"}
_READ_TOKENS = {"l", "r", "0", "load", "read", "p"}

#: PCs and addresses must fit the packed format's uint64 columns.
_UINT64_MAX = (1 << 64) - 1


class ChampSimParseError(ValueError):
    """An input line could not be parsed as an LS-trace access."""


_HEX_LETTERS = set("abcdef")


def _parse_int(token: str, bare_base: int) -> int:
    """Parse a PC/address field; bare (un-prefixed) numbers use ``bare_base``."""

    token = token.lower()
    if token.startswith("0x"):
        return int(token, 16)
    return int(token, bare_base)


def _sniff_bare_base(path: Path) -> int:
    """The file-wide radix of bare numeric fields: 16 if any contains a
    hex letter (ChampSim's usual bare-hex form), else 10.

    One radix per file — deciding per token would interpret letter-free
    hex values as decimal and corrupt the stream.  A file that has bare
    fields but *no* letter anywhere is genuinely ambiguous (an all-digit
    hex dump would be misread as decimal), so that case emits a warning
    pointing at the explicit ``radix`` argument / ``--radix`` flag.
    """

    saw_bare = False
    with _open_text(path) as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for token in stripped.split()[:2]:
                token = token.lower()
                if token.startswith("0x"):
                    continue
                saw_bare = True
                if _HEX_LETTERS & set(token):
                    return 16
    if saw_bare:
        warnings.warn(
            f"{path}: bare numeric fields contain no hex letters; assuming "
            f"decimal — pass radix='hex' (--radix hex) if this is a "
            f"bare-hexadecimal dump",
            stacklevel=3,
        )
    return 10


def _open_text(path: Path) -> IO[str]:
    with path.open("rb") as probe:
        magic = probe.read(2)
    if path.suffix == ".gz" or magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return path.open("r", encoding="utf-8", errors="replace")


def _parse_lines(lines: Iterator[str], source: str, bare_base: int):
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 2:
            raise ChampSimParseError(
                f"{source}:{number}: expected '<pc> <address> [L|S]', got {stripped!r}"
            )
        try:
            pc = _parse_int(fields[0], bare_base)
            address = _parse_int(fields[1], bare_base)
        except ValueError:
            raise ChampSimParseError(
                f"{source}:{number}: non-numeric pc/address in {stripped!r}"
            ) from None
        if not (0 <= pc <= _UINT64_MAX and 0 <= address <= _UINT64_MAX):
            raise ChampSimParseError(
                f"{source}:{number}: pc/address outside the uint64 range "
                f"in {stripped!r}"
            )
        is_write = False
        if len(fields) >= 3:
            token = fields[2].lower()
            if token in _WRITE_TOKENS:
                is_write = True
            elif token not in _READ_TOKENS:
                raise ChampSimParseError(
                    f"{source}:{number}: unknown access type {fields[2]!r} "
                    f"(expected one of L/S/R/W/0/1)"
                )
        yield pc, address, is_write


#: Accepted ``radix`` arguments → the base bare numbers parse under
#: (``"auto"`` sniffs the file, see :func:`_sniff_bare_base`).
_RADIX_MODES = {"hex": 16, "dec": 10}


def import_champsim_trace(
    path: str | Path, name: str | None = None, radix: str = "auto"
) -> PackedTrace:
    """Parse a ChampSim-style LS trace file into a :class:`PackedTrace`.

    ``name`` defaults to the file's stem (with ``.gz``/``.trace`` stripped).
    ``radix`` fixes how bare (un-prefixed) numbers are read — ``"hex"``,
    ``"dec"``, or ``"auto"`` to sniff the file (one radix per file either
    way).  The result records its provenance — source file, radix and
    import counts — in ``metadata["imported"]``.
    """

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such trace file: {path}")
    if radix == "auto":
        bare_base = _sniff_bare_base(path)
    elif radix in _RADIX_MODES:
        bare_base = _RADIX_MODES[radix]
    else:
        raise ValueError(
            f"radix must be one of 'auto', 'hex', 'dec'; got {radix!r}"
        )
    if name is None:
        name = path.name
        for suffix in (".gz", ".txt", ".trace", ".xz"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        name = name or path.stem
    pcs = array("Q")
    addresses = array("Q")
    write_flags: list[bool] = []
    with _open_text(path) as handle:
        for pc, address, is_write in _parse_lines(handle, str(path), bare_base):
            pcs.append(pc)
            addresses.append(address)
            write_flags.append(is_write)
    if not pcs:
        raise ChampSimParseError(f"{path}: no accesses found")
    return PackedTrace(
        name=name,
        pcs=pcs,
        addresses=addresses,
        writes=_pack_bits(write_flags, len(pcs)),
        metadata={
            "generator": "champsim-import",
            "imported": {
                "source": path.name,
                "format": "champsim-ls",
                "bare_radix": bare_base,
                "accesses": len(pcs),
                "writes": sum(write_flags),
            },
        },
    )
