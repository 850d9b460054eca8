import numpy as np
import pytest
from scipy.signal import max_len_seq

from corrsounder.errors import ConfigError
from corrsounder.pn import (
    ChipSequence,
    LfsrSpec,
    generate_leapforward,
    generate_msequence,
    periodic_autocorrelation,
    preset,
)


def bits_of(seq):
    return ((seq.chips + 1) // 2).tolist()


def register_states(seq):
    """The register state before each chip: chips k .. k + order - 1 of the
    cyclic output, stage 1 first (stage ``order`` holds the next output)."""
    order = seq.spec.order
    bits = bits_of(seq)
    return [tuple(reversed((bits + bits)[k : k + order])) for k in range(len(bits))]


class TestLfsrStep:
    """The Fibonacci shift, seen through the sequence it generates."""

    def test_hand_simulated_order3(self):
        # taps {3,2}, seed 111: states and output stream 1110010, derived by hand
        seq = generate_msequence(preset(3))
        assert bits_of(seq) == [1, 1, 1, 0, 0, 1, 0]
        assert register_states(seq) == [
            (1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0),
        ]

    def test_all_ones_seed_emits_order_ones_first(self):
        assert bits_of(generate_msequence(preset(11)))[:11] == [1] * 11

    @pytest.mark.parametrize("order", [3, 7])
    def test_state_returns_to_seed_after_full_period_only(self, order):
        spec = preset(order)
        states = register_states(generate_msequence(spec))
        assert states[0] == spec.seed
        assert len(set(states)) == spec.period  # visits every non-zero state once

    def test_wrong_length_state_rejected(self):
        with pytest.raises(ConfigError, match="seed length"):
            LfsrSpec(order=3, feedback_taps=frozenset({3, 2}), seed=(1, 1, 1, 1))


class TestGenerateMsequence:
    def test_order3_bits(self):
        assert bits_of(generate_msequence(preset(3))) == [1, 1, 1, 0, 0, 1, 0]

    def test_order11_length_and_prefix(self):
        seq = generate_msequence(preset(11))
        assert len(seq) == 2047
        assert bits_of(seq)[:11] == [1] * 11

    def test_balance(self):
        seq = generate_msequence(preset(11))
        assert int((seq.chips == 1).sum()) == 1024
        assert int((seq.chips == -1).sum()) == 1023

    def test_non_primitive_taps_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not primitive
        spec = LfsrSpec(order=4, feedback_taps=frozenset({4, 2}))
        with pytest.raises(ConfigError, match="primitive"):
            generate_msequence(spec)

    def test_deterministic(self):
        a = generate_msequence(preset(7))
        b = generate_msequence(preset(7))
        assert np.array_equal(a.chips, b.chips)

    def test_cached_per_spec_and_read_only(self):
        seq = generate_msequence(preset(7))
        assert generate_msequence(preset(7)) is seq
        with pytest.raises(ValueError):
            seq.chips[0] = -seq.chips[0]

    def test_matches_scipy_up_to_shift(self):
        # scipy's generator uses the reciprocal polynomial convention, which
        # produces the time-reversed sequence; cyclic correlation against the
        # reversed reference must peak at the full length.
        ours = generate_msequence(preset(11)).chips.astype(float)
        theirs = (max_len_seq(11)[0].astype(np.int8) * 2 - 1)[::-1].astype(float)
        cc = np.fft.ifft(np.fft.fft(ours) * np.conj(np.fft.fft(theirs))).real
        assert round(cc.max()) == 2047


class TestLeapForward:
    @pytest.mark.parametrize("order", [3, 7, 11])
    @pytest.mark.parametrize("chips_per_cycle", [1, 2, 3, 4, 5, 7, 8, 16])
    def test_identical_to_serial(self, order, chips_per_cycle):
        spec = preset(order)
        serial = generate_msequence(spec)
        leap = generate_leapforward(spec, chips_per_cycle)
        assert np.array_equal(serial.chips, leap.chips)

    def test_non_divisor_block(self):
        # 3 does not divide 127, so the last block is truncated
        spec = preset(7)
        assert np.array_equal(
            generate_leapforward(spec, 3).chips, generate_msequence(spec).chips
        )

    def test_invalid_block_size(self):
        with pytest.raises(ConfigError):
            generate_leapforward(preset(3), 0)


class TestAutocorrelation:
    def test_lag_zero_is_length(self):
        seq = generate_msequence(preset(11))
        assert periodic_autocorrelation(seq, 0) == 2047

    def test_sample_lag(self):
        seq = generate_msequence(preset(11))
        assert periodic_autocorrelation(seq, 17) == -1

    @pytest.mark.parametrize("order", [3, 7, 11])
    def test_two_valued_exhaustive(self, order):
        seq = generate_msequence(preset(order))
        values = {periodic_autocorrelation(seq, lag) for lag in range(1, len(seq))}
        assert values == {-1}

    def test_lag_out_of_range(self):
        seq = generate_msequence(preset(3))
        with pytest.raises(ConfigError):
            periodic_autocorrelation(seq, 7)
        with pytest.raises(ConfigError):
            periodic_autocorrelation(seq, -1)


class TestSpecValidation:
    def test_all_zero_seed_rejected(self):
        with pytest.raises(ConfigError, match="all-zero"):
            LfsrSpec(order=3, feedback_taps=frozenset({3, 2}), seed=(0, 0, 0))

    def test_taps_must_include_order(self):
        with pytest.raises(ConfigError):
            LfsrSpec(order=3, feedback_taps=frozenset({2, 1}))

    def test_taps_out_of_range(self):
        with pytest.raises(ConfigError):
            LfsrSpec(order=3, feedback_taps=frozenset({3, 5}))

    def test_chips_must_be_bipolar(self):
        with pytest.raises(ConfigError):
            ChipSequence(chips=np.array([1, 0, -1]), spec=preset(3))
