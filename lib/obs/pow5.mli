(** The 128-bit powers-of-five table of the Eisel–Lemire conversion
    behind {!Obs.Json} number parsing (generated by
    [scripts/gen_pow5.py]). *)

val min_q : int
(** Smallest decimal exponent covered: [-342]. *)

val max_q : int
(** Largest decimal exponent covered: [308]. *)

val table : int64 array
(** [5^q] normalised so bit 127 is set (truncated for [q >= 0], rounded
    up for [q < 0]): high word at [2 * (q - min_q)], low word at the
    next index. *)
