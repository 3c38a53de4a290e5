module Alphabet = Prognosis_dtls.Dtls_alphabet

let scenarios =
  Alphabet.
    [
      [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; App_data; Alert_close; App_data;
      ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; Finished; App_data;
      ];
      [ Client_hello; Client_key_exchange; Change_cipher_spec; Finished; App_data ];
    ]

let protocol ?server_config () =
  {
    Protocol.name = "dtls";
    kind = Persist.Dtls_model;
    inputs = Alphabet.all;
    input_to_string = Alphabet.to_string;
    output_to_string = Alphabet.output_to_string;
    sul =
      (fun ~seed -> Prognosis_dtls.Dtls_adapter.sul ?server_config ~seed ());
    scenarios;
    random_words = 400;
    max_len = 10;
  }
