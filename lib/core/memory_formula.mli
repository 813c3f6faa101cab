(** Steady-state overflow probability of the continuous-load MBAC with an
    exponentially-weighted estimator of memory [t_m] — the paper's central
    quantitative results (§4.1–4.3, eqns (32)–(39)).

    Everything is expressed for the OU traffic model
    rho(t) = exp(-|t|/T_c); set [t_m = 0.] for the memoryless scheme
    (eqns (32)/(33) are the [t_m = 0] specialisations of (37)/(38)).

    [alpha_ce] is the Gaussian quantile the controller actually runs at —
    Q^{-1}(p_ce).  Plain certainty equivalence uses
    [alpha_ce = Q^{-1}(p_q)]; the robust scheme runs at the inverted
    (larger) value from {!Inversion}. *)

val sigma_m_sq : t_c:float -> t_m:float -> gamma:float -> float -> float
(** sigma_m^2(t) = (2T_c + T_m)/(T_c + T_m)
                   - (2T_c/(T_c + T_m)) exp(-gamma t)
    — the incremental variance E[(Z_{-t/beta} - Y_0)^2] of the filtered
    estimation error against the instantaneous fluctuation (§4.3). *)

val overflow : p:Params.t -> t_m:float -> alpha_ce:float -> float
(** Eqn (37): numerical integration of the hitting term plus the residual
    bandwidth-fluctuation term Q(alpha_ce sqrt(1 + T_c/T_m)).
    @raise Invalid_argument if [t_m < 0]. *)

val overflow_closed_form : p:Params.t -> t_m:float -> alpha_ce:float -> float
(** Eqn (38): the separation-of-time-scales (gamma >> 1) closed form
      gamma T_c / sqrt((T_c+T_m)(2T_c+T_m)) . (1/sqrt(2 pi))
        exp(-(T_c+T_m) alpha^2 / (2 (2T_c+T_m)))
      + Q(alpha sqrt(1 + T_c/T_m)). *)

val overflow_memoryless : p:Params.t -> alpha_ce:float -> float
(** Eqn (32): [overflow ~t_m:0.]. *)

val overflow_memoryless_closed_form : p:Params.t -> alpha_ce:float -> float
(** Eqn (33): gamma/(2 sqrt pi) exp(-alpha^2/4). *)

val overflow_memoryless_in_flow_params : p:Params.t -> alpha_ce:float -> float
(** Eqn (34): (T~_h / (2 T_c)) (sigma alpha / mu) Q(alpha / sqrt 2) —
    the same quantity rewritten with Q(x) ~ phi(x)/x, kept separately so
    the test suite can confirm the paper's algebra. *)

val estimator_error_variance : t_c:float -> t_m:float -> float
(** E[Z_t^2] = T_c / (T_c + T_m): the variance of the filtered
    mean-bandwidth estimate (§4.3) — decreasing in memory. *)

val overflow_cached : p:Params.t -> t_m:float -> alpha_ce:float -> float
(** Exactly {!overflow} — same adaptive integration, bit-identical
    results — memoized on (T_c, gamma, T_m, alpha_ce) in a bounded
    domain-local cache.  Use it from sweeps and robustness profiles that
    revisit the same parameter grid; repeated points cost a hash lookup
    instead of an adaptive integral. *)
