module Wire = Prognosis_tcp.Tcp_wire
module Alphabet = Prognosis_tcp.Tcp_alphabet

let protocol ?server_config () =
  {
    Protocol.name = "tcp";
    kind = Persist.Tcp_model;
    inputs = Alphabet.all;
    input_to_string = Alphabet.to_string;
    output_to_string = Alphabet.output_to_string;
    sul = (fun ~seed -> Prognosis_tcp.Tcp_adapter.sul ?server_config ~seed ());
    scenarios = [];
    random_words = 500;
    max_len = 12;
  }

let fields =
  {
    Protocol.names_in = [| "seq"; "ack"; "len" |];
    names_out = [| "seq"; "ack" |];
    of_sent =
      (function
      | [ (seg : Wire.segment) ] ->
          [| seg.Wire.seq; seg.Wire.ack; String.length seg.Wire.payload |]
      | _ -> [| 0; 0; 0 |]);
    (* The server's initial sequence number is freshly random per
       connection and therefore inexpressible; only acknowledgement
       numbers are constrained (the paper's models likewise leave such
       parameters as '?'). *)
    of_received =
      (function
      | [] -> [| None; None |]
      | (seg : Wire.segment) :: _ ->
          let ack = if seg.Wire.flags.Wire.ack then Some seg.Wire.ack else None in
          [| None; ack |]);
  }
