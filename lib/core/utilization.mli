(** Utilization accounting: what robustness costs in carried bandwidth
    (§3.1, §4.3 eqn (40)). *)

val perfect : Params.t -> float
(** Average carried bandwidth under perfect knowledge: m* mu
    ~ c - sigma alpha_q sqrt n. *)

val certainty_equivalent : Params.t -> alpha_ce:float -> float
(** Average carried bandwidth when the MBAC runs at target alpha_ce:
    ~ c - sigma alpha_ce sqrt n (from eqn (10) with the adjusted target;
    the supremum term of eqn (36) is target-independent and excluded, as
    in the paper's eqn (40) reasoning). *)

val difference : Params.t -> alpha_ce:float -> alpha_ce':float -> float
(** Eqn (40): the utilization gap between running at p_ce and p_ce',
    sigma sqrt n (alpha_ce - alpha_ce'). *)

val robustness_cost : Params.t -> t_m:float -> float
(** Bandwidth given up by the robust scheme (inverted p_ce at memory
    [t_m]) relative to plain certainty equivalence at p_q. *)
