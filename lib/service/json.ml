(* The codec lives in Estima_obs.Json.  This alias stays only because the
   frozen servebench/ directory names Estima_service.Json; retarget it
   there and delete this file. *)
include Estima_obs.Json
