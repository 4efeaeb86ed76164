(* The codec lives in [Prelude.Json]; this alias keeps [Serve.Json] for
   callers that still name it there. *)
include Prelude.Json
