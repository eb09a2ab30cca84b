"""Hecke algebras of the (extended) affine Weyl group.

* :class:`LaurentPoly`: sparse integer Laurent polynomials in v with the bar
  involution v -> v^{-1} and exact division.
* :class:`Combination`: the sparse "key -> Laurent polynomial" arithmetic
  shared by the algebra and its modules, with the generator step of
  Soergel's rules, and :func:`act_standard`, the one walker along a reduced
  word that every right action folds that step over.
* :class:`HeckeElem`: finitely supported Z[v, v^{-1}]-combinations of the
  standard basis (H_w), with the quadratic relation
  (H_s + v)(H_s - v^{-1}) = 0 and H_x H_y = H_{xy} when lengths add.
* Kazhdan-Lusztig basis via the right-descent recursion, memoized per datum
  and optionally in an append-only on-disk cache scoped to its datum.
* Ingestion and validation of external tables for the characteristic-p
  canonical basis; the Kazhdan-Lusztig basis itself is the built-in
  "large p" instance.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib

from . import weyl

__all__ = [
    "LaurentPoly",
    "v",
    "one",
    "Combination",
    "HeckeElem",
    "unit",
    "standard",
    "act_standard",
    "act",
    "kl_basis",
    "PCanonicalTable",
    "TableValidationError",
    "builtin_kl_table",
    "load_pcanonical",
    "dump_pcanonical",
    "KLCache",
    "set_disk_cache",
]


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse integer Laurent polynomial in v (exponent -> coefficient)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def term(cls, coeff, exp=0):
        return cls({exp: coeff})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def bar(self):
        """The involution v -> v^{-1}."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def coeff(self, exp):
        return self.coeffs.get(exp, 0)

    def evaluate_at_one(self):
        return sum(self.coeffs.values())

    def min_exp(self):
        return min(self.coeffs)

    def max_exp(self):
        return max(self.coeffs)

    def divide_exact(self, other):
        """Exact division in Z[v, v^{-1}]; returns None if not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        rem = dict(self.coeffs)
        lo_e = other.min_exp()
        lo_c = other.coeffs[lo_e]
        quot = {}
        guard = 0
        while rem:
            guard += 1
            if guard > 10000:
                return None
            e = min(rem)
            c = rem[e]
            if c % lo_c != 0:
                return None
            q = c // lo_c
            qe = e - lo_e
            quot[qe] = q
            for oe, oc in other.coeffs.items():
                k = qe + oe
                nc = rem.get(k, 0) - q * oc
                if nc:
                    rem[k] = nc
                else:
                    rem.pop(k, None)
        return LaurentPoly(quot)

    def to_pairs(self):
        return sorted(self.coeffs.items())

    @classmethod
    def from_pairs(cls, pairs):
        return cls({int(e): int(c) for e, c in pairs})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                bits.append("%sv^%d" % (head, e) if e != 1 else "%sv" % head)
        return " + ".join(bits).replace("+ -", "- ")


v = LaurentPoly.term(1, 1)
one = LaurentPoly.term(1)
vinv = LaurentPoly.term(1, -1)


# ---------------------------------------------------------------------------
# sparse combinations and the reduced-word walker


class Combination:
    """Finitely supported map key -> Laurent polynomial over one root datum.

    A subclass gives its key order (``sort_key``), its repr label
    (``symbol`` and ``key_text``) and its generator step: the default
    ``step`` is Soergel's rule for keys in W_ext, and ``leave_factor``
    selects the algebra (None) or a module on the coset-minimal set.  Zero
    coefficients are dropped on construction.
    """

    __slots__ = ("datum", "support")
    symbol = None
    sort_key = staticmethod(weyl.sort_key)
    key_text = staticmethod(weyl.to_text)
    # Coefficient of the term w in (term w) . H_s when ws leaves the
    # coset-minimal set; None for the algebra, which has no such set.
    leave_factor = None

    def __init__(self, datum, support=None):
        self.datum = datum
        self.support = {k: p for k, p in (support or {}).items() if not p.is_zero()}

    def __eq__(self, other):
        return type(self) is type(other) and self.support == other.support

    def is_zero(self):
        return not self.support

    def __add__(self, other):
        out = dict(self.support)
        for k, p in other.support.items():
            out[k] = out.get(k, LaurentPoly()) + p
        return type(self)(self.datum, out)

    def __sub__(self, other):
        out = dict(self.support)
        for k, p in other.support.items():
            out[k] = out.get(k, LaurentPoly()) - p
        return type(self)(self.datum, out)

    def scale(self, poly):
        return type(self)(self.datum, {k: p * poly for k, p in self.support.items()})

    def coeff(self, key):
        return self.support.get(key, LaurentPoly())

    def specialize_v1(self):
        """Every coefficient evaluated at v = 1; vanishing keys are dropped."""
        out = {}
        for k, p in self.support.items():
            val = p.evaluate_at_one()
            if val:
                out[k] = val
        return out

    def items_sorted(self):
        key = self.sort_key
        return sorted(self.support.items(), key=lambda kv: key(kv[0]))

    def step(self, s):
        """Right action of H_s for a length-1 generator s: the term w goes
        to ws, plus (v^{-1} - v) w when ws is shorter; in a module whose
        basis is the coset-minimal set, to ``leave_factor`` w when ws
        leaves that set."""
        out = {}
        leave = self.leave_factor
        for w, p in self.support.items():
            ws = weyl.multiply(w, s)
            if leave is not None and not weyl.is_fWext(ws):
                out[w] = out.get(w, LaurentPoly()) + p * leave
                continue
            out[ws] = out.get(ws, LaurentPoly()) + p
            if ws.length() < w.length():
                out[w] = out.get(w, LaurentPoly()) + p * (vinv - v)
        return type(self)(self.datum, out)

    def __repr__(self):
        if not self.support:
            return "%s(0)" % type(self).__name__
        return " + ".join("(%r)*%s[%s]" % (p, self.symbol, self.key_text(k))
                          for k, p in self.items_sorted())


def act_standard(x, y):
    """x . H_y for one element y of W_ext.

    With y = omega u (l(omega) = 0, u in W), H_y = H_{u'} H_omega for
    u' = omega u omega^{-1}: fold the generator step of x's type over a
    reduced word of u', then shift every key right by omega.
    """
    step = type(x).step
    omega, u = weyl.omega_decompose(y)
    uprime = weyl.multiply(weyl.multiply(omega, u), weyl.invert(omega))
    gens = weyl.all_generators(x.datum)
    for i in weyl.reduced_word(uprime):
        x = step(x, gens[i])
    if not omega.is_identity():
        x = type(x)(x.datum, {weyl.multiply(w, omega): p for w, p in x.support.items()})
    return x


def act(x, h):
    """x . h for an algebra element h: the product in the extended Hecke
    algebra, or the right action on a module element."""
    if x.datum is not h.datum:
        raise ValueError("elements over different root data")
    out = type(x)(x.datum)
    for y, p in h.support.items():
        out = out + act_standard(x, y).scale(p)
    return out


# ---------------------------------------------------------------------------
# Hecke elements


class HeckeElem(Combination):
    """Finitely supported map W_ext -> Z[v, v^{-1}] in the standard basis."""

    __slots__ = ()
    symbol = "H"


def unit(datum):
    return HeckeElem(datum, {weyl.identity(datum): one})


def standard(w):
    return HeckeElem(w.datum, {w: one})


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig basis


def set_disk_cache(cache):
    """Install a KLCache for persistence of kl_basis on the datum it was
    made for; it never answers for another datum."""
    cache.datum.memo.put("kl_disk_cache", cache)


def kl_basis(w):
    """The Kazhdan-Lusztig basis element attached to w.

    For w in W this is the unique bar-fixed H_w + sum_{y < w} h_{y,w} H_y
    with h_{y,w} in v Z[v]; for w = omega * u the extended element is
    H_omega * (KL element of u), i.e. a key shift.
    """
    datum = w.datum
    omega, u = weyl.omega_decompose(w)
    base = _kl_w(u)
    if omega.is_identity():
        return base
    return HeckeElem(datum, {weyl.multiply(omega, y): p for y, p in base.support.items()})


def _kl_w(u):
    """The KL element of u in W, in loops along one reduced word: walk down
    the right-descent chain u, u s, ... (the lex-minimal reduced word of
    u s is that of u without its last letter s) to the first element in
    memory or on disk, or to the identity, then build back up."""
    datum = u.datum
    memo = datum.memo.entry("kl")
    disk = datum.memo.entry("kl_disk_cache", lambda: None)
    chain, word = [], None  # (element, length) missed on the way down
    while u not in memo:
        got = None if disk is None else disk.get(datum, u)
        if got is not None:
            memo[u] = got
            break
        n = u.length()
        chain.append((u, n))
        if n == 0:
            break
        if word is None:
            word, gens = weyl.reduced_word(u), weyl.all_generators(datum)
        u = weyl.multiply(u, gens[word[n - 1]])
    out = memo.get(u)
    for u, n in reversed(chain):
        if n == 0:
            out = unit(datum)
        else:
            s = gens[word[n - 1]]  # right descent of u
            # (KL of u s) * (H_s + v), less the mu-corrections at keys y
            # with ys < y
            cand = out.step(s) + out.scale(v)
            corr = HeckeElem(datum)
            for y, p in sorted(cand.support.items(),
                               key=lambda kv: -kv[0].length()):
                if y == u:
                    continue
                if weyl.multiply(y, s).length() < y.length():
                    # the KL part contributes no constant term at H_y, so
                    # the constant term left after higher corrections is
                    # mu(y, u s)
                    mu = (p - corr.coeff(y)).coeff(0)
                    if mu:
                        corr = corr + _kl_w(y).scale(LaurentPoly.term(mu))
            out = cand - corr
        memo[u] = out
        if disk is not None:
            disk.put(datum, u, out)
    return out


# ---------------------------------------------------------------------------
# persistent cache (append-only binary file)

_CACHE_MAGIC = b"AFKL"
_CACHE_VERSION = 1


def _shaped_like_kl(u, support):
    """Cheap necessary conditions on the KL element of u in W: coefficient 1
    at u, and at every other key y an element of W with l(y) < l(u) whose
    coefficient lies in vZ[v], has degree <= l(u) - l(y) and has the parity
    of l(u) - l(y)."""
    if support.get(u) != 1:
        return False
    lu = u.length()
    for y, p in support.items():
        if y == u:
            continue
        if not u.datum.in_root_lattice(y.trans):
            return False
        # 1 <= e <= d forces l(y) < l(u); zero coefficients are dropped
        d = lu - y.length()
        if any(e < 1 or e > d or (d - e) % 2 for e in p.coeffs):
            return False
    return True


class KLCache:
    """Append-only on-disk memo for KL elements.

    Layout: 4-byte magic, u32 version, 32-byte datum-hash (hex truncated to
    32 bytes of the digest), then records of the form
    ``u32 key_len | key | u32 val_len | val | u32 crc32(key + val)``.
    Keys are element texts; values are JSON support maps.  Torn or corrupted
    tail records are skipped (and recomputed), never trusted; so is a record
    whose content fails the checks of ``get``.
    """

    def __init__(self, path, datum):
        self.path = path
        self.datum = datum
        self.mem = {}
        self._load()

    def _header(self):
        return (
            _CACHE_MAGIC
            + struct.pack("<I", _CACHE_VERSION)
            + bytes.fromhex(self.datum.datum_hash)[:32]
        )

    def _load(self):
        if not os.path.exists(self.path):
            with open(self.path, "wb") as f:
                f.write(self._header())
            return
        with open(self.path, "rb") as f:
            blob = f.read()
        head = self._header()
        if not blob.startswith(head):
            # wrong datum or version: start over
            with open(self.path, "wb") as f:
                f.write(head)
            return
        pos = len(head)
        while pos + 4 <= len(blob):
            (klen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + klen + 4 > len(blob):
                break
            key = blob[pos:pos + klen]
            pos += klen
            (vlen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + vlen + 4 > len(blob):
                break
            val = blob[pos:pos + vlen]
            pos += vlen
            (crc,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if zlib.crc32(key + val) != crc:
                continue  # corrupted record: skip, will be recomputed
            try:
                self.mem[key.decode()] = json.loads(val.decode())
            except ValueError:
                continue

    def get(self, datum, u):
        """The stored KL element of u in W, or None.  A record that is not
        shaped like one is dropped, so the caller recomputes and re-appends
        it; see _shaped_like_kl."""
        key = weyl.to_text(u)
        raw = self.mem.get(key)
        if raw is None:
            return None
        try:
            support = {weyl.from_text(datum, wt): LaurentPoly.from_pairs(pairs)
                       for wt, pairs in raw.items()}
        except (AttributeError, TypeError, ValueError):
            support = None
        if support is None or not _shaped_like_kl(u, support):
            del self.mem[key]
            return None
        return HeckeElem(datum, support)

    def put(self, datum, u, elem):
        key = weyl.to_text(u)
        if key in self.mem:
            return  # write-once per key
        raw = {weyl.to_text(w): p.to_pairs() for w, p in elem.support.items()}
        self.mem[key] = raw
        kb = key.encode()
        vb = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
        rec = (
            struct.pack("<I", len(kb)) + kb
            + struct.pack("<I", len(vb)) + vb
            + struct.pack("<I", zlib.crc32(kb + vb))
        )
        with open(self.path, "ab") as f:
            f.write(rec)


# ---------------------------------------------------------------------------
# p-canonical tables


class TableValidationError(ValueError):
    """Raised when an ingested table violates a structural invariant."""


class PCanonicalTable:
    """A (partial) table w -> {y -> poly} for a canonical basis.

    ``p`` is an integer or "infinity"; ``basis_kind`` is "H", "N" or "M"
    (algebra, antispherical or spherical coefficients).  The built-in
    instance is lazily backed by the Kazhdan-Lusztig basis.
    """

    def __init__(self, datum, p, basis_kind, entries=None, builtin=False):
        self.datum = datum
        self.p = p
        self.basis_kind = basis_kind
        self.entries = dict(entries or {})
        self.builtin = builtin

    def column(self, w):
        """The column of w as a map y -> LaurentPoly."""
        if self.builtin:
            if self.basis_kind == "H":
                return dict(kl_basis(w).support)
            from . import parabolic
            p_kind = parabolic.p_N if self.basis_kind == "N" else parabolic.p_M
            return dict(p_kind(builtin_kl_table(self.datum), w).support)
        if w not in self.entries:
            raise KeyError("table has no column for %s" % weyl.to_text(w))
        return dict(self.entries[w])

    def as_hecke(self, w):
        if self.basis_kind != "H":
            raise ValueError("column is not an algebra element")
        return HeckeElem(self.datum, self.column(w))

    @property
    def table_hash(self):
        if self.builtin:
            payload = "builtin:%s:%s:%s" % (self.datum.datum_hash, self.p, self.basis_kind)
            return hashlib.sha256(payload.encode()).hexdigest()
        payload = json.dumps(
            {"datum": self.datum.datum_hash, "p": self.p,
             "basis": self.basis_kind,
             "entries": dump_pcanonical(self)["entries"]},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def builtin_kl_table(datum, basis_kind="H"):
    """The Kazhdan-Lusztig instance of the table (valid for p >> 0), one per
    datum and basis kind, so the query memos keyed by table hit."""
    return datum.memo.entry(
        "builtin_kl_table_" + basis_kind,
        lambda: PCanonicalTable(datum, "infinity", basis_kind, builtin=True))


def validate_table(table):
    """Check unitriangularity, bar self-duality and KL-positivity.

    Self-duality and positivity are checked together: the change of basis
    from each column to the Kazhdan-Lusztig basis (of the matching module)
    must have bar-symmetric coefficients with nonnegative integer entries.
    Raises TableValidationError naming the offending (y, w).
    """
    canonical = builtin_kl_table(table.datum, table.basis_kind)
    for w in sorted(table.entries, key=weyl.sort_key):
        col = table.entries[w]
        diag = col.get(w)
        if diag is None or diag != one:
            raise TableValidationError(
                "unitriangularity fails at (%s, %s): diagonal entry is not 1"
                % (weyl.to_text(w), weyl.to_text(w))
            )
        for y in col:
            cmp = weyl.bruhat_leq(y, w)
            if cmp is not True:
                raise TableValidationError(
                    "unitriangularity fails at (%s, %s): support not below "
                    "the column index" % (weyl.to_text(y), weyl.to_text(w))
                )
        # greedy change of basis into the canonical (KL) family
        rem = {y: p for y, p in col.items() if not p.is_zero()}
        guard = 0
        while rem:
            guard += 1
            if guard > 100000:  # pragma: no cover
                raise TableValidationError("change of basis does not terminate")
            y = max(rem, key=weyl.sort_key)
            c = rem[y]
            if c != c.bar():
                raise TableValidationError(
                    "self-duality fails at (%s, %s): KL-coefficient %r is "
                    "not bar-symmetric" % (weyl.to_text(y), weyl.to_text(w), c)
                )
            if any(coef < 0 for coef in c.coeffs.values()):
                raise TableValidationError(
                    "positivity fails at (%s, %s): KL-coefficient %r has a "
                    "negative entry" % (weyl.to_text(y), weyl.to_text(w), c)
                )
            for z, p in canonical.column(y).items():
                npoly = rem.get(z, LaurentPoly()) - c * p
                if npoly.is_zero():
                    rem.pop(z, None)
                else:
                    rem[z] = npoly
    return True


def load_pcanonical(path, datum):
    """Load and eagerly validate a p-canonical table from JSON."""
    with open(path) as f:
        doc = json.load(f)
    return table_from_json(doc, datum)


def table_from_json(doc, datum):
    if not isinstance(doc, dict):
        raise TableValidationError("a table document must be a JSON object")
    if doc.get("schema") != 1:
        raise TableValidationError("unsupported table schema version")
    datum_field = doc.get("datum", "")
    if not isinstance(datum_field, str):
        raise TableValidationError("the datum field must be a string")
    if datum_field and datum.datum_hash not in datum_field:
        raise TableValidationError("table was computed for a different datum")
    p = doc.get("p")
    if p != "infinity" and (not isinstance(p, int) or p < 2):
        raise TableValidationError("invalid p value %r" % (p,))
    basis = doc.get("basis", "H")
    if basis not in ("H", "N", "M"):
        raise TableValidationError("invalid basis kind %r" % (basis,))
    columns = doc.get("entries", {})
    if not isinstance(columns, dict):
        raise TableValidationError("entries must map element texts to columns")
    entries = {}
    for wt, col in columns.items():
        if not isinstance(col, dict):
            raise TableValidationError("the column of %s is not a JSON object" % wt)
        w = weyl.from_text(datum, wt)
        entries[w] = {}
        for yt, pairs in col.items():
            y = weyl.from_text(datum, yt)
            try:
                entries[w][y] = LaurentPoly.from_pairs(pairs)
            except (TypeError, ValueError):
                raise TableValidationError(
                    "the entry at (%s, %s) is not a list of [exponent, "
                    "coefficient] pairs" % (yt, wt)) from None
    table = PCanonicalTable(datum, p, basis, entries)
    validate_table(table)
    return table


def dump_pcanonical(table):
    """Serialize a table to the JSON interchange form."""
    return {
        "schema": 1,
        "datum": "%s:%s" % (table.datum.label, table.datum.datum_hash),
        "p": table.p,
        "basis": table.basis_kind,
        "entries": {
            weyl.to_text(w): {
                weyl.to_text(y): p.to_pairs() for y, p in sorted(
                    col.items(), key=lambda kv: weyl.sort_key(kv[0]))
            }
            for w, col in sorted(table.entries.items(),
                                 key=lambda kv: weyl.sort_key(kv[0]))
        },
    }

