"""numpy's bounded integer draw, as the operators made their picks before each pick became ``int(u * f)``.

Until then every pick among f links or MRs was the draw numpy's
``Generator.integers(f)`` makes: one draw from an ``index_draws`` drawer,
bound once per operator call, or, in random attachment, one draw made in
place from an ``IndexBlock`` of raw outputs. The front hashes recorded then
(``test_golden.WITH_INTEGER_PICKS``) came from this code, and the history
test there draws its picks with it again; ``test_kernels`` checks that
both forms make the draws of ``Generator.integers`` and leave the
generator in its state.
"""

from __future__ import annotations


def index_draws(rng):
    """A drawer ``draw(n)`` of uniform indices in [0, n) from the numpy ``Generator`` ``rng``: the ints its ``integers(n)`` gives.

    Each ``draw(n)`` makes the same draws as ``rng.integers(n)`` and leaves
    ``rng.bit_generator.state`` the same, ``has_uint32`` and ``uinteger``
    included, so draws from the drawer and calls on ``rng`` itself may
    interleave. For 1 < n <= 2**32 - 1 numpy's ``integers`` runs Lemire's
    bounded draw ("Fast Random Integer Generation in an Interval", ACM TOMACS
    2019) on the bit generator's ``next_uint32``: with m = x * n for a 32-bit
    output x, it redraws while the low 32 bits of m are below
    (2**32 - n) % n and returns the high 32 bits. The drawer does the same
    through the bit generator's ctypes interface, bound once here. For
    n == 1 numpy returns 0 without drawing, and so does the drawer; any
    other n, or one that is not a plain ``int``, goes to
    ``Generator.integers`` itself, which raises for n <= 0.

    The drawer holds ``rng``, so the state address it holds stays valid for
    as long as the drawer lives. Unlike ``Generator.integers`` it does not
    take the bit generator's lock, so two threads must not draw from one
    generator at once.
    """
    c = rng.bit_generator.ctypes
    next_uint32, state = c.next_uint32, c.state_address

    def draw(n):
        if type(n) is int and 1 < n <= 0xFFFFFFFF:
            m = next_uint32(state) * n
            if m & 0xFFFFFFFF < n:  # n bounds the threshold, so most draws skip the modulo, as numpy's do
                threshold = (0x100000000 - n) % n
                while m & 0xFFFFFFFF < threshold:
                    m = next_uint32(state) * n
            return m >> 32
        if n == 1 and type(n) is int:
            return 0
        return int(rng.integers(n))

    return draw


class IndexBlock:
    """The draws of an ``index_draws`` drawer, read from one block of raw 32-bit outputs of the numpy ``Generator`` ``rng``.

    Opening the block saves ``rng.bit_generator.state`` and takes ``size``
    outputs at once, ``rng.integers(2**32, size=size)``, which returns the
    bit generator's ``next_uint32`` outputs in order, a buffered 32-bit half
    included. ``outputs`` holds them as ints. A draw of an index in [0, n),
    for a plain int 1 < n <= 2**32 - 1, runs Lemire's step on them where it
    is made, with no call, and keeps its own cursor ``i`` into ``outputs``::

        m = outputs[i] * n
        i += 1
        if m & 0xFFFFFFFF < n:
            m, i = block.redraw(n, m, i)
        index = m >> 32

    A draw with n == 1 is 0 and reads nothing, as numpy's is. The draws
    are those ``index_draws`` makes, in the same order, as long as at most
    ``size`` of them are made; ``redraw`` takes more outputs when its
    redraws would leave fewer outputs than the draws still allowed. The
    block is a context manager, and the caller stores its cursor in
    ``used`` before the ``with`` block ends. Its end, exception or not,
    restores the saved state and takes exactly ``used`` outputs again, so
    ``rng`` is left where the per-draw drawer leaves it. Nothing else may
    draw from ``rng`` while the block is open.
    """

    __slots__ = ("outputs", "used", "_rng", "_state", "_reads")

    def __init__(self, rng, size):
        self._rng = rng
        self._state = rng.bit_generator.state
        self.outputs = rng.integers(0x100000000, size=size).tolist()
        self.used = 0
        self._reads = size  # the most outputs the draws may read: size, plus one per redraw

    def redraw(self, n, m, i):
        """Finish a draw at ``n`` whose product ``m`` has its low 32 bits below n; returns (accepted product, cursor).

        ``i`` is the cursor past the output of ``m``. While the low 32 bits
        of m are below the threshold (2**32 - n) % n, m is redrawn from the
        output at the cursor, as ``index_draws`` redraws.
        """
        threshold = (0x100000000 - n) % n
        outputs = self.outputs
        while m & 0xFFFFFFFF < threshold:
            self._reads += 1
            if len(outputs) < self._reads:
                outputs.extend(self._rng.integers(0x100000000, size=self._reads - len(outputs)).tolist())
            m = outputs[i] * n
            i += 1
        return m, i

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Leave ``rng`` as ``used`` outputs of the per-draw drawer would: hand back the outputs taken past them."""
        if self.used < len(self.outputs):
            self._rng.bit_generator.state = self._state
            if self.used:
                self._rng.integers(0x100000000, size=self.used)
