type schedule = Source.schedule

let schedule = Source.schedule
let factor_at = Source.factor_at
let create = Source.modulated
