"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each ``affkl`` module,
and the public methods, constructors and arithmetic operators of its
classes, with counting wrappers.  A call that enters a layer from another
layer opens a span; a call inside the same layer is only counted, since
splitting a layer's time among its own functions does not change the
layer's self time.  A layer's self time is the duration of its spans minus
the part covered by the spans they cause.  Time outside every span is the
unattributed time, so the self times plus the unattributed time equal the
traced wall time.

Private helpers are not wrapped, and neither is the weight arithmetic on
tuples in ``rootdata`` (``pair`` and friends): a span costs more than such
a call does.  Their time counts to the layer that calls them
(``affkl._intlinalg`` thus counts to ``rootdata`` and ``alcoves``).  The
helpers in ``COUNTED_PRIVATE`` are the exception: they are wrapped to be
counted.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("rootdata", "weyl", "alcoves", "hecke", "parabolic", "periodic",
          "characters", "cli")
UNATTRIBUTED = "unattributed"
# Dunders worth a span: construction and arithmetic.  __eq__ and __hash__
# run inside every dict lookup and would cost more than they tell.
DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__")
UNWRAPPED = ("rootdata.pair", "rootdata.add_weights", "rootdata.sub_weights",
             "rootdata.neg_weight", "rootdata.scale_weight")
# Private helpers wrapped for their call count.  ``hecke._kl_w`` is the KL
# recursion: it calls itself by its module-level name, so every step of the
# recursion passes the wrapper, while ``kl_basis`` is entered once per
# element asked for.
COUNTED_PRIVATE = ("hecke._kl_w",)
# Calls whose individual durations are kept, not only summed.
TIMED = ("parabolic.verify_main", "hecke.KLCache.__init__")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layer = UNATTRIBUTED
        self.child = 0.0  # time covered by child spans of the open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.klcache_hits = 0
        self.wall = 0.0

    def wrap(self, layer, name, fn):
        calls = self.calls
        span = self.span
        timed = name in TIMED

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.layer == layer and not timed:
                return fn(*args, **kwargs)
            return span(layer, name, timed, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, layer, name, timed, fn, args, kwargs):
        outer_layer, outer_child = self.layer, self.child
        self.layer, self.child = layer, 0.0
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.clock() - start
            self.self_s[layer] += dur - self.child
            self.layer, self.child = outer_layer, outer_child + dur
            if timed:
                self.durations[name].append(dur)

    def run(self, fn, *args):
        """Call ``fn`` as the root of the trace and return its result.  Its
        wall time adds to ``wall``; time not covered by a span becomes
        unattributed."""
        if self.layer != UNATTRIBUTED:
            raise RuntimeError("the trace root is already open")
        self.child = 0.0
        start = self.clock()
        try:
            return fn(*args)
        finally:
            wall = self.clock() - start
            self.wall += wall
            self.self_s[UNATTRIBUTED] += wall - self.child
            self.child = 0.0

    def install(self):
        """Wrap every layer module of ``affkl`` in place."""
        mods = [importlib.import_module("affkl." + layer) for layer in LAYERS]
        self._count_klcache_hits(mods[LAYERS.index("hecke")].KLCache)
        replaced = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    wrapper = self.wrap(layer, name, obj)
                    replaced[obj] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for name in COUNTED_PRIVATE:
            layer, attr = name.split(".")
            mod = mods[LAYERS.index(layer)]
            setattr(mod, attr, self.wrap(layer, name, getattr(mod, attr)))
        # names bound by ``from .x import f`` in other modules
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _count_klcache_hits(self, cls):
        get = cls.get

        def counted_get(cache, datum, u):
            got = get(cache, datum, u)
            if got is not None:
                self.klcache_hits += 1
            return got

        cls.get = counted_get

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(layer, name, member.__func__)))
            elif isinstance(member, property) and member.fset is None:
                setattr(cls, attr, property(self.wrap(layer, name, member.fget)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(layer, name, member))
