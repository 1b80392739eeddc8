"""The one reader and writer of every workspace CSV table.

A table is a header row plus data rows in the default `csv` dialect
(`\\r\\n` line ends, minimal quoting). `write_table` replaces the file in
one step, so a failure part-way leaves the previous table (or none), never
a torn one. `read_table` accepts exactly the header it is told to expect
and rows of the same width; every problem is an `InputError` that names
`file:line`.
"""

import csv
import os
from pathlib import Path

from .errors import InputError

# Payloads (the TEXT or TKNA of a long method) can exceed the csv module's
# default 128 KiB field limit; whatever the writer wrote must read back.
csv.field_size_limit(2 ** 31 - 1)


def write_table(path, header: list[str], rows) -> None:
    """Write `header` and then `rows`, in the given order, to `path`.

    The rows go to a temporary file beside `path` that replaces it only
    once every row is written; on any exception the temporary file is
    removed and `path` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path, header: list[str], int_columns: tuple[str, ...] = ()
               ) -> list[list]:
    """Data rows of the table at `path`, blank lines skipped.

    The first row must equal `header` and every other row must have as
    many fields. Values of `int_columns` come back as ints.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"missing artifact: {path}")
    ints = [header.index(name) for name in int_columns]
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                found = "an empty file" if got is None else ",".join(got)
                raise InputError(f"{path}:1: expected header "
                                 f"{','.join(header)}, got {found}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{reader.line_num}: expected {len(header)} "
                        f"fields, got {len(row)}")
                for i in ints:
                    try:
                        row[i] = int(row[i])
                    except ValueError:
                        raise InputError(
                            f"{path}:{reader.line_num}: {header[i]} "
                            f"{row[i]!r} is not an integer") from None
                rows.append(row)
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return rows
