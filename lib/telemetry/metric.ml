type flat = { mutable value : float }

type t =
  | Counter of int ref
  | Sum of flat
  | Gauge of flat
  | Hist of Histogram.t

let kind_name = function
  | Counter _ -> "counter"
  | Sum _ -> "sum"
  | Gauge _ -> "gauge"
  | Hist h -> (
      match Histogram.layout h with
      | Linear _ -> "histogram"
      | Log _ -> "quantile_histogram")

let copy = function
  | Counter r -> Counter (ref !r)
  | Sum c -> Sum { value = c.value }
  | Gauge c -> Gauge { value = c.value }
  | Hist h -> Hist (Histogram.copy h)

let merge_into ~into src =
  match (into, src) with
  | Counter a, Counter b -> a := !a + !b
  | Sum a, Sum b -> a.value <- a.value +. b.value
  | Gauge a, Gauge b -> a.value <- b.value
  | Hist a, Hist b -> Histogram.merge_into ~into:a b
  | (Counter _ | Sum _ | Gauge _ | Hist _), _ ->
      invalid_arg
        (Printf.sprintf "Metric.merge_into: kind mismatch (%s vs %s)"
           (kind_name into) (kind_name src))
