"""Run manifests, content digests, and the one atomic artifact writer.

Every artifact goes through ``atomic_write``: its writer streams the text
into a temporary file in the target directory, which is renamed into place
only when the writer returns, so a crashed run never leaves a partial
file. Each chunk is encoded and hashed as it passes, so no copy of the
artifact's text is held, and the sha256 of the bytes written is returned.
The manifest lists each artifact with that digest, so a rerun (same
config, same inputs) is checkable bit-for-bit and no artifact is read back
to hash it; ``sha256_file`` is for input files.
"""

from __future__ import annotations

import hashlib
import json
import os


# Bytes of a file hashed at a time, read into one reused buffer.
_HASH_BLOCK = 1 << 20


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        # No larger than the file, since a bytearray touches every page; a
        # size of 0 may be a stream's, read a whole block at a time.
        block = bytearray(min(_HASH_BLOCK, os.fstat(fh.fileno()).st_size)
                          or _HASH_BLOCK)
        view = memoryview(block)
        while size := fh.readinto(block):
            h.update(view[:size])
    return "sha256:" + h.hexdigest()


class _Sink:
    """The text stream an :func:`atomic_write` writer writes to: each string
    is encoded as UTF-8, hashed and written through to the temporary file."""

    def __init__(self, fh, path):
        self._fh = fh
        self._path = path
        self._hash = hashlib.sha256()

    def write(self, text):
        data = text.encode("utf-8")
        self._hash.update(data)
        self._fh.write(data)
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def getvalue(self):
        """The text written so far, read back from the temporary file.

        The benchmark's tracer (``lpbench/tracing.py``) counts the bytes of
        each instance CSV with it. It holds the whole text, so no ``lpeval``
        code calls it.
        """
        self._fh.flush()
        with open(self._path, encoding="utf-8", newline="") as fh:
            return fh.read()

    def digest(self):
        return "sha256:" + self._hash.hexdigest()


def atomic_write(path, write):
    """Write an artifact to ``path`` atomically with ``write(sink)``; returns
    the sha256 of its bytes.

    ``sink`` takes text through ``write`` and ``writelines``, like a text
    file opened with ``newline=""``. If ``write`` raises, the temporary
    file is removed and any file already at ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    # Created exclusively, as tempfile.mkstemp does, but with the mode a
    # plain open() gives (0o666 less the umask), which the rename keeps;
    # mkstemp's would make every artifact readable by its owner only.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            sink = _Sink(fh, tmp)
            write(sink)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return sink.digest()


def atomic_write_text(path, text):
    """Write ``text`` as UTF-8 to ``path`` atomically; returns its sha256."""
    return atomic_write(path, lambda sink: sink.write(text))


def write_json(path, payload):
    """Write ``payload`` as sorted, indented JSON; returns its sha256."""
    return atomic_write_text(
        path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_manifest(out_dir, command, config_echo, digests,
                   input_digest=None, toolkit_version="unknown"):
    """Write manifest.json describing one command run; returns its path.

    ``digests`` maps each artifact's path relative to ``out_dir`` to the
    sha256 its writer returned.
    """
    manifest = {
        "command": command,
        "toolkit_version": toolkit_version,
        "config": config_echo,
        "input_digest": input_digest,
        "artifacts": [{"path": p, "sha256": d} for p, d in sorted(digests.items())],
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path
